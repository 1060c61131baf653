package mathx

import (
	"math"
	"testing"
)

// sameBits reports whether a and b are the same float32 bits, or both NaN.
// Where two NaNs meet in an add, the result carries the payload of one of
// them by operand order, and Go's compiler orders the operands of the
// scalar loop's commutative add as it likes (it does so differently under
// fuzzing instrumentation); every comparison downstream treats all NaNs
// alike.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkCentroids holds every lane of SquaredL2Into to SquaredL2 of q and
// that centroid's row, bit for bit, and checks that dst past K is left
// alone.
func checkCentroids(t *testing.T, m *Matrix, q []float32) {
	t.Helper()
	c := NewCentroids(m)
	const sentinel = 12345.5
	dst := make([]float32, m.Rows+3)
	for i := range dst {
		dst[i] = sentinel
	}
	c.SquaredL2Into(q, dst)
	for r := 0; r < m.Rows; r++ {
		want := SquaredL2(q, m.Row(r))
		if !sameBits(dst[r], want) {
			t.Fatalf("D=%d K=%d centroid %d: %v (%#08x), want %v (%#08x)", m.Cols, m.Rows, r,
				dst[r], math.Float32bits(dst[r]), want, math.Float32bits(want))
		}
	}
	for i, v := range dst[m.Rows:] {
		if v != sentinel {
			t.Fatalf("D=%d K=%d: dst[K+%d] overwritten with %v", m.Cols, m.Rows, i, v)
		}
	}
}

// TestCentroidsBitIdentity holds the column-block kernel to SquaredL2 over
// every dimension from 1 to 80 at centroid counts on and off multiples of
// 8 and of 32 (a short last group, and one to three groups after the
// four-group passes) up to 300, with entries that include signed zeros,
// subnormals, infinities, NaNs of both signs and payloads, and squares that
// overflow.
func TestCentroidsBitIdentity(t *testing.T) {
	special := [...]float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), 1e-30, -1e-30, 1e20, -1e20, 3e38, -3e38,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0xffc00001), math.Float32frombits(0x7f800001),
	}
	r := NewRNG(43)
	value := func(specials bool) float32 {
		if specials && r.Intn(4) == 0 {
			return special[r.Intn(len(special))]
		}
		return float32(r.NormFloat64())
	}
	ks := []int{}
	for k := 1; k <= 40; k++ {
		ks = append(ks, k)
	}
	ks = append(ks, 63, 64, 65, 95, 96, 97, 100, 127, 128, 129, 160, 255, 256, 257, 299, 300)
	for d := 1; d <= 80; d++ {
		for _, k := range ks {
			specials := (d+k)%3 == 0
			m := NewMatrix(k, d)
			for i := range m.Data {
				m.Data[i] = value(specials)
			}
			q := make([]float32, d)
			for i := range q {
				q[i] = value(specials)
			}
			checkCentroids(t, m, q)
		}
	}
	// Every centroid count up to 300 at the served shapes' sub-vector and
	// coarse dimensions.
	for _, d := range []int{4, 8, 64} {
		for k := 1; k <= 300; k++ {
			m := NewMatrix(k, d)
			m.FillRandn(r, 1)
			q := make([]float32, d)
			for i := range q {
				q[i] = value(k%5 == 0)
			}
			checkCentroids(t, m, q)
		}
	}
}

// TestCentroidsEmpty covers the degenerate shapes: no centroids writes
// nothing, and zero-dimensional centroids are all at distance +0.
func TestCentroidsEmpty(t *testing.T) {
	NewCentroids(NewMatrix(0, 5)).SquaredL2Into(make([]float32, 5), nil)
	dst := []float32{7, 7, 7, 7}
	NewCentroids(NewMatrix(3, 0)).SquaredL2Into(nil, dst)
	if math.Float32bits(dst[0]) != 0 || math.Float32bits(dst[2]) != 0 || dst[3] != 7 {
		t.Fatalf("zero-dimensional distances %v, want [0 0 0 7]", dst)
	}
}

// TestCentroidsLayout pins the column-major layout: coordinate j of
// centroid c at Data[j*Stride+c], Stride rounded up to 8, padding zero.
func TestCentroidsLayout(t *testing.T) {
	m := NewMatrix(10, 3)
	for i := range m.Data {
		m.Data[i] = float32(i + 1)
	}
	c := NewCentroids(m)
	if c.K != 10 || c.D != 3 || c.Stride != 16 || len(c.Data) != 48 {
		t.Fatalf("shape K=%d D=%d Stride=%d len=%d, want 10 3 16 48", c.K, c.D, c.Stride, len(c.Data))
	}
	for j := 0; j < 3; j++ {
		for i := 0; i < 16; i++ {
			want := float32(0)
			if i < 10 {
				want = m.At(i, j)
			}
			if got := c.Data[j*16+i]; got != want {
				t.Fatalf("Data[%d*16+%d] = %v, want %v", j, i, got, want)
			}
		}
	}
}

// FuzzSquaredL2ManyEquivalence feeds arbitrary float32 bit patterns to the
// column-block kernel and to SquaredL2 and requires the same bits from
// both for every centroid (a NaN matching any NaN, see sameBits).
func FuzzSquaredL2ManyEquivalence(f *testing.F) {
	f.Add(uint8(8), []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff, 1, 0, 0, 0})
	f.Add(uint8(3), make([]byte, 400))
	f.Add(uint8(64), []byte("some bytes to be floats"))
	f.Fuzz(func(t *testing.T, dRaw uint8, raw []byte) {
		d := int(dRaw)%80 + 1
		floats := floatsOf(raw)
		if len(floats) < d {
			return
		}
		q, rest := floats[:d], floats[d:]
		k := len(rest) / d
		m := &Matrix{Rows: k, Cols: d, Data: rest[:k*d]}
		checkCentroids(t, m, q)
	})
}
