//go:build amd64 && !purego

package index

import (
	"emblookup/internal/mathx"
	"emblookup/internal/quant"
)

// fsAVX2 reports whether the assembly kernel can run here (mathx.HasAVX2:
// the CPU has AVX2 and the OS saves the YMM state).
var fsAVX2 = mathx.HasAVX2

//go:noescape
func fsScanAVX2(blocks *byte, nblocks int, lut8 *uint8, np int, limit uint32, qd *[fsBlock]uint8) (skipped int, mask uint32)

//go:noescape
func fsScan4AVX2(blocks *byte, nblocks int, lut8 *uint8, np int, limits *[fsLanes]uint32, out *fsRunOut) (skipped int)

// fsScanRun is the one door to the assembly kernel (see fastscan_amd64.s
// for its contract): one lane, or fsLanes lanes whose lut8 tables lie one
// after the other in lut8. The assembly has no bounds checks of its own:
// the index expressions here panic on a blocks or lut8 shorter than the
// run — every lane's table included — before the kernel can read past
// either; blocks may be a read-only mapping with nothing behind it. A limit
// of 255 or more admits every saturated sum.
func fsScanRun(blocks []byte, lut8 []uint8, np, nblocks, lanes int, limits *[fsLanes]uint32, out *fsRunOut) (skipped int) {
	if nblocks <= 0 {
		return 0
	}
	if lanes != 1 && lanes != fsLanes {
		panic("index: the AVX2 fast-scan kernel runs 1 or 4 lanes")
	}
	_, _ = blocks[nblocks*np*fsBlock-1], lut8[lanes*2*np*quant.Ks4-1]
	if lanes == 1 {
		skipped, out.mask[0] = fsScanAVX2(&blocks[0], nblocks, &lut8[0], np, min(limits[0], 0xff), &out.qd[0])
		return skipped
	}
	var lim [fsLanes]uint32
	for l, v := range limits {
		lim[l] = min(v, 0xff)
	}
	return fsScan4AVX2(&blocks[0], nblocks, &lut8[0], np, &lim, out)
}
