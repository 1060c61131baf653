package mathx

import "fmt"

// Centroids is a block of K centroids of dimension D stored column-major,
// the layout that scores one vector against all of them eight centroids
// per instruction: coordinate j of centroid c is Data[j*Stride+c], where
// Stride is K rounded up to a multiple of 8 and the padding lanes are
// zero. Build one with NewCentroids and keep it as long as the rows it
// was built from do not change.
type Centroids struct {
	K, D, Stride int
	Data         []float32 // len == D*Stride
}

// NewCentroids transposes the rows of m (one centroid per row) into a
// column-major block.
func NewCentroids(m *Matrix) *Centroids {
	stride := (m.Rows + 7) &^ 7
	c := &Centroids{K: m.Rows, D: m.Cols, Stride: stride, Data: make([]float32, m.Cols*stride)}
	for r := 0; r < m.Rows; r++ {
		for j, v := range m.Row(r) {
			c.Data[j*stride+r] = v
		}
	}
	return c
}

// SquaredL2Into writes the squared Euclidean distance from q (length D) to
// every centroid into dst[:K]; dst may be longer, and the rest of it is
// left alone. Each distance is SquaredL2(q, centroid) bit for bit (where
// two NaNs meet, either one's payload, as in SquaredL2 itself): every lane
// takes the difference, its square and the running sum in SquaredL2's
// order from j = 0, never fused — on AVX2 (centroids_amd64.s) eight lanes
// per instruction and four groups of eight per pass over q, elsewhere four
// centroids per pass.
func (c *Centroids) SquaredL2Into(q, dst []float32) {
	if len(q) != c.D || len(dst) < c.K {
		panic(fmt.Sprintf("mathx: SquaredL2Into of a %d-vector into %d for %d centroids of %d", len(q), len(dst), c.K, c.D))
	}
	if c.K == 0 {
		return
	}
	if c.D == 0 {
		clear(dst[:c.K])
		return
	}
	if HasAVX2 {
		c.squaredL2AVX2(q, dst)
		return
	}
	// Four centroids (of the padded Stride) per pass over q, each sum held
	// in a register as SquaredL2 holds its own.
	for i := 0; i < c.K; i += 4 {
		var s0, s1, s2, s3 float32
		for j, v := range q {
			col := c.Data[j*c.Stride+i:][:4]
			d0, d1, d2, d3 := v-col[0], v-col[1], v-col[2], v-col[3]
			s0 += float32(d0 * d0)
			s1 += float32(d1 * d1)
			s2 += float32(d2 * d2)
			s3 += float32(d3 * d3)
		}
		copy(dst[i:c.K], []float32{s0, s1, s2, s3})
	}
}
