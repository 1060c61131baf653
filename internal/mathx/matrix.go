package mathx

import "fmt"

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use NewMatrix to allocate one with a shape.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 {
	return m.Data[i*m.Cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) {
	m.Data[i*m.Cols+j] = v
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatVec computes out = m · x for a vector x of length m.Cols, returning a
// vector of length m.Rows.
func (m *Matrix) MatVec(x []float32) []float32 {
	out := make([]float32, m.Rows)
	m.MatVecInto(x, out)
	return out
}

// MatVecInto computes out = m · x into the provided out (length m.Rows),
// avoiding the per-call allocation of MatVec. Every row's sum is Dot's
// sequential s += m[r][j]*x[j] from j = 0, so each output is bit-identical
// to a Dot per row. On AVX2 (dense_amd64.s) eight rows share each
// instruction: 8×8 tiles of the row-major weights are transposed in
// registers, so that each lane adds its own row's products in column
// order, and two groups of eight rows run per pass over x. Elsewhere, and
// for the rows past the last multiple of eight, four rows share each pass
// as four independent sums, whose adds the CPU overlaps.
func (m *Matrix) MatVecInto(x, out []float32) {
	n := m.Cols
	if len(x) != n || len(out) != m.Rows {
		panic(fmt.Sprintf("mathx: MatVecInto shape mismatch %d,%d vs %dx%d", len(x), len(out), m.Rows, m.Cols))
	}
	r := 0
	if HasAVX2 {
		r = m.matVecAVX2(x, out)
	}
	for ; r+4 <= m.Rows; r += 4 {
		w0 := m.Data[r*n:][:n]
		w1 := m.Data[(r+1)*n:][:n]
		w2 := m.Data[(r+2)*n:][:n]
		w3 := m.Data[(r+3)*n:][:n]
		var s0, s1, s2, s3 float32
		for j, v := range x {
			s0 += float32(w0[j] * v)
			s1 += float32(w1[j] * v)
			s2 += float32(w2[j] * v)
			s3 += float32(w3[j] * v)
		}
		out[r], out[r+1], out[r+2], out[r+3] = s0, s1, s2, s3
	}
	for ; r < m.Rows; r++ {
		out[r] = Dot(m.Row(r), x)
	}
}

// MatVecT computes out = mᵀ · x for a vector x of length m.Rows, returning a
// vector of length m.Cols.
func (m *Matrix) MatVecT(x []float32) []float32 {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("mathx: MatVecT shape mismatch %d vs %d", len(x), m.Rows))
	}
	out := make([]float32, m.Cols)
	for i := 0; i < m.Rows; i++ {
		Axpy(x[i], m.Row(i), out)
	}
	return out
}

// FillRandn fills m with normally distributed values scaled by std.
func (m *Matrix) FillRandn(r *RNG, std float64) {
	for i := range m.Data {
		m.Data[i] = float32(r.NormFloat64() * std)
	}
}
