//go:build amd64 && !purego

package mathx

//go:noescape
func squaredL2ColsAVX2(q, cols, dst *float32, d, stride, groups int, last *int32)

// lastLanes[8-n:][:8] is the store mask of a last group of n live lanes.
var lastLanes = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// squaredL2AVX2 runs the assembly kernel (centroids_amd64.s) over every
// group of eight centroids in one call, the last group's padding lanes
// masked out of the store. SquaredL2Into has checked the shapes and that K
// and D are positive.
func (c *Centroids) squaredL2AVX2(q, dst []float32) {
	groups := (c.K + 7) / 8
	live := c.K - 8*(groups-1)
	squaredL2ColsAVX2(&q[0], &c.Data[0], &dst[0], c.D, c.Stride, groups, &lastLanes[8-live])
}
