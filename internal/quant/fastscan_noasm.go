//go:build !amd64 || purego

package quant

// hasQuantizeAVX2 is false in a build without the assembly loops: every
// table is quantized by the scalar loops of QuantizeTableInto.
const hasQuantizeAVX2 = false

func rowSpans4([]float32, []float32, []float32) {
	panic("quant: no AVX2 table quantizer in this build")
}

func quantizeRows4([]uint8, []float32, []float32, float32) {
	panic("quant: no AVX2 table quantizer in this build")
}
