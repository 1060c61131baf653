//go:build !amd64 || purego

package index

// fsAVX2 is false in a build without the assembly kernel: every fast-scan
// scan runs the portable kernel, and fsScanRun is never reached.
const fsAVX2 = false

func fsScanRun([]byte, []uint8, int, int, uint32, *[fsBlock]uint8) (int, uint32) {
	panic("index: no AVX2 fast-scan kernel in this build")
}

// fsNibMins and fsGroupBounds are the portable bound loops in this build.
func fsNibMins(table []float32, m int, nib []float32) { fsNibMinsGo(table, m, nib) }

func fsGroupBounds(masks []uint16, nib []float32, m int, out []float32) {
	fsGroupBoundsGo(masks, nib, m, out)
}
