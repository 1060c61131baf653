//go:build amd64 && !purego

package mathx

//go:noescape
func matVecTilesAVX2(w, x, out *float32, n, groups, tiles int)

//go:noescape
func axpyAVX2(alpha float32, x, y *float32, blocks int)

// matVecAVX2 writes out[r] for every row r below the last multiple of 8:
// the assembly kernel (dense_amd64.s) sums each row's full 8-column tiles,
// and the column tail finishes here in the same order. It returns the rows
// written (none for fewer than 8 rows or columns); MatVecInto has checked
// the shapes.
func (m *Matrix) matVecAVX2(x, out []float32) int {
	n := m.Cols
	rows, tiled := m.Rows&^7, n&^7
	if rows == 0 || tiled == 0 {
		return 0
	}
	w := m.Data[:rows*n]
	matVecTilesAVX2(&w[0], &x[0], &out[0], n, rows/8, tiled/8)
	if tiled < n {
		xt := x[tiled:]
		for r := 0; r < rows; r++ {
			s := out[r]
			for j, v := range w[r*n+tiled : (r+1)*n] {
				s += float32(v * xt[j])
			}
			out[r] = s
		}
	}
	return rows
}

// axpyAVX2Blocks runs the assembly kernel over x's whole blocks of eight
// and returns the elements it did; Axpy has checked that y is long enough.
func axpyAVX2Blocks(alpha float32, x, y []float32) int {
	n := len(x) &^ 7
	if n > 0 {
		axpyAVX2(alpha, &x[0], &y[0], n/8)
	}
	return n
}
