//go:build !amd64 || purego

package mathx

func (m *Matrix) matVecAVX2(x, out []float32) int {
	panic("mathx: no AVX2 matvec kernel in this build")
}

func axpyAVX2Blocks(alpha float32, x, y []float32) int {
	panic("mathx: no AVX2 axpy kernel in this build")
}
