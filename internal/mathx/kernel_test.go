package mathx

import (
	"encoding/binary"
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
// loop bit for bit, over row counts on and off multiples of 4 and of 8 (the
// AVX2 kernel's pairs of eight-row groups, a last odd group, then 0 to 7
// rows for the four-row passes and single rows), lengths from 0 to 40 (no
// tile, whole tiles, a column tail of 1 to 7), and entries that include
// signed zeros, subnormals and products that overflow — a sum that starts
// at +0 and adds −0 must stay +0.
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
	for rows := 1; rows <= 27; rows++ {
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

// floatsOf reads raw as little-endian float32 bit patterns.
func floatsOf(raw []byte) []float32 {
	fs := make([]float32, len(raw)/4)
	for i := range fs {
		fs[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return fs
}

// FuzzMatVecEquivalence feeds arbitrary float32 bit patterns to MatVecInto
// at 1–40 rows and 1–200 columns (the floats cycled to fill the matrix and
// x) and requires each output to be Dot of its row and x, bit for bit (a
// NaN matching any NaN, see sameBits).
func FuzzMatVecEquivalence(f *testing.F) {
	f.Add(uint8(16), uint8(8), []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff, 1, 0, 0, 0})
	f.Add(uint8(39), uint8(136), make([]byte, 64))
	f.Add(uint8(24), uint8(13), []byte("some bytes to be floats, then rows"))
	f.Fuzz(func(t *testing.T, rowsRaw, colsRaw uint8, raw []byte) {
		rows, cols := int(rowsRaw)%40+1, int(colsRaw)%200+1
		floats := floatsOf(raw)
		if len(floats) == 0 {
			return
		}
		m := NewMatrix(rows, cols)
		x := make([]float32, cols)
		for i := range x {
			x[i] = floats[i%len(floats)]
		}
		for i := range m.Data {
			m.Data[i] = floats[(cols+i)%len(floats)]
		}
		got := make([]float32, rows)
		m.MatVecInto(x, got)
		for r, g := range got {
			if want := Dot(m.Row(r), x); !sameBits(g, want) {
				t.Fatalf("%dx%d row %d: %v (%#08x), want %v (%#08x)", rows, cols, r,
					g, math.Float32bits(g), want, math.Float32bits(want))
			}
		}
	})
}

// FuzzAxpyEquivalence holds Axpy to its one-element-at-a-time loop, bit for
// bit, at lengths 0–100 (whole blocks of eight and a tail) and an arbitrary
// alpha; y is one element longer than x, and that element stays as it was.
func FuzzAxpyEquivalence(f *testing.F) {
	f.Add(uint32(0x3f800000), uint8(8), []byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff, 1, 0, 0, 0})
	f.Add(uint32(0xff800000), uint8(64), make([]byte, 64))
	f.Add(uint32(0x80000000), uint8(99), []byte("some bytes to be floats"))
	f.Fuzz(func(t *testing.T, alphaBits uint32, nRaw uint8, raw []byte) {
		alpha, n := math.Float32frombits(alphaBits), int(nRaw)%101
		floats := floatsOf(raw)
		if len(floats) == 0 {
			return
		}
		x, y := make([]float32, n), make([]float32, n+1)
		for i := range x {
			x[i] = floats[i%len(floats)]
		}
		for i := range y {
			y[i] = floats[(n+i)%len(floats)]
		}
		want := Clone(y)
		for i := range x {
			want[i] += float32(alpha * x[i])
		}
		Axpy(alpha, x, y)
		for i := range want {
			if !sameBits(y[i], want[i]) {
				t.Fatalf("n=%d alpha=%v element %d: %v (%#08x), want %v (%#08x)", n, alpha, i,
					y[i], math.Float32bits(y[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}
