//go:build !amd64 || purego

package nn

import "emblookup/internal/mathx"

// applyAVX2 is never reached in a build without the assembly kernel:
// mathx.HasAVX2 is the constant false there, and every convolution runs
// applyPortable.
func (c *Conv1D) applyAVX2(*mathx.Matrix, *mathx.Matrix, bool) {
	panic("nn: no AVX2 convolution kernel in this build")
}
