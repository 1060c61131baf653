package mathx

import (
	"math"
	"testing"
)

// refMatVecInto is MatVecInto as it stood before the four-row pass: one
// Dot per row, Dot's loop verbatim but for the float32 conversion that
// spells out the rounding of each product.
func refMatVecInto(m *Matrix, x, out []float32) {
	for i := 0; i < m.Rows; i++ {
		a := m.Row(i)
		var s float32
		for j := range a {
			s += float32(a[j] * x[j])
		}
		out[i] = s
	}
}

// TestMatVecBitIdentity holds MatVecInto and MatVec to the one-Dot-per-row
// loop bit for bit, over row counts on and off multiples of 4 (a remainder
// of 0 to 3 rows after the four-row passes), lengths from 0 to 40, and
// entries that include signed zeros, subnormals and products that
// overflow — a sum that starts at +0 and adds −0 must stay +0.
func TestMatVecBitIdentity(t *testing.T) {
	special := [...]float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), 1e-30, -1e-30, 1e20, -1e20, 3e38, -3e38,
	}
	r := NewRNG(41)
	value := func() float32 {
		if r.Intn(3) == 0 {
			return special[r.Intn(len(special))]
		}
		return float32(r.NormFloat64())
	}
	for rows := 1; rows <= 13; rows++ {
		for cols := 0; cols <= 40; cols++ {
			m := NewMatrix(rows, cols)
			for i := range m.Data {
				m.Data[i] = value()
			}
			x := make([]float32, cols)
			for i := range x {
				x[i] = value()
			}
			want := make([]float32, rows)
			refMatVecInto(m, x, want)
			got := make([]float32, rows)
			m.MatVecInto(x, got)
			for name, g := range map[string][]float32{"MatVecInto": got, "MatVec": m.MatVec(x)} {
				for i := range want {
					if math.Float32bits(g[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s %dx%d row %d: %v (%#08x), want %v (%#08x)", name, rows, cols, i,
							g[i], math.Float32bits(g[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}
