package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, eps float32) bool {
	return float32(math.Abs(float64(a-b))) <= eps
}

func TestDot(t *testing.T) {
	if got := Dot([]float32{1, 2, 3}, []float32{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestSquaredL2AndL2(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{3, 4}
	if got := SquaredL2(a, b); got != 25 {
		t.Fatalf("SquaredL2 = %v, want 25", got)
	}
}

func TestNormalize(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if !approx(Norm(v), 1, 1e-6) {
		t.Fatalf("norm after Normalize = %v", Norm(v))
	}
	zero := []float32{0, 0}
	Normalize(zero) // must not NaN
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("zero vector changed: %v", zero)
	}
}

func TestAxpyScaleAddSub(t *testing.T) {
	y := []float32{1, 1}
	Axpy(2, []float32{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3.5 || y[1] != 4.5 {
		t.Fatalf("Scale = %v", y)
	}
	d := Sub([]float32{1, 2}, []float32{3, 4})
	if d[0] != -2 || d[1] != -2 {
		t.Fatalf("Sub = %v", d)
	}
}

// Property: squared L2 distance is symmetric and non-negative, and zero iff
// the vectors coincide (up to float representation).
func TestSquaredL2Properties(t *testing.T) {
	f := func(raw []float32) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := raw[:half], raw[half:half*2]
		for i := range a {
			// Keep values finite and modest to avoid inf arithmetic.
			if math.IsNaN(float64(a[i])) || math.IsInf(float64(a[i]), 0) ||
				math.IsNaN(float64(b[i])) || math.IsInf(float64(b[i]), 0) {
				return true
			}
		}
		d1 := SquaredL2(a, b)
		d2 := SquaredL2(b, a)
		return d1 == d2 && d1 >= 0 && SquaredL2(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixOps(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 1, 2)
	m.Set(0, 2, 3)
	m.Set(1, 0, 4)
	m.Set(1, 1, 5)
	m.Set(1, 2, 6)

	v := m.MatVec([]float32{1, 1, 1})
	if v[0] != 6 || v[1] != 15 {
		t.Fatalf("MatVec = %v", v)
	}
	vt := m.MatVecT([]float32{1, 1})
	if vt[0] != 5 || vt[1] != 7 || vt[2] != 9 {
		t.Fatalf("MatVecT = %v", vt)
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrix(1, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}
