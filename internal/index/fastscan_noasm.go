//go:build !amd64 || purego

package index

// fsAVX2 is false in a build without the assembly kernel: every fast-scan
// scan runs the portable group kernel, and fsScanRun is never reached.
const fsAVX2 = false

func fsScanRun([]byte, []uint8, int, int, uint32, *[fsBlock]uint8) (int, uint32) {
	panic("index: no AVX2 fast-scan kernel in this build")
}
