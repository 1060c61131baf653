//go:build !amd64 || purego

package index

// fsAVX2 is false in a build without the assembly kernel: every fast-scan
// scan runs the portable kernel, and fsScanRun is never reached.
const fsAVX2 = false

func fsScanRun([]byte, []uint8, int, int, uint32, *[fsBlock]uint8) (int, uint32) {
	panic("index: no AVX2 fast-scan kernel in this build")
}

// fsClusterBounds is the portable loop in this build, over the first half
// of the sub-quantizers.
func fsClusterBounds(masks []byte, lut8 []uint8, m int, tab []uint8, out []uint16) (h int) {
	fsClusterBoundsGo(masks, lut8, m, m/2, tab, out)
	return m / 2
}
