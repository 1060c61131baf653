//go:build !amd64 || purego

package mathx

func (c *Centroids) squaredL2AVX2(q, dst []float32) {
	panic("mathx: no AVX2 centroid kernel in this build")
}
