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

// fsScanRun is the one door to the assembly kernel (see fastscan_amd64.s
// for its contract). The assembly has no bounds checks of its own: the
// index expressions here panic on a blocks or lut8 shorter than the run
// before the kernel can read past either; blocks may be a read-only
// mapping with nothing behind it. A limit of 255 or more admits every
// saturated sum.
func fsScanRun(blocks []byte, lut8 []uint8, np, nblocks int, limit uint32, qd *[fsBlock]uint8) (skipped int, mask uint32) {
	if nblocks <= 0 {
		return 0, 0
	}
	_, _ = blocks[nblocks*np*fsBlock-1], lut8[2*np*quant.Ks4-1]
	return fsScanAVX2(&blocks[0], nblocks, &lut8[0], np, min(limit, 0xff), qd)
}

//go:noescape
func fsClusterBoundsAVX2(masks *byte, ngroups int, lut8 *uint8, m int, tab *uint8, out *uint16)

// fsClusterBounds is the one door to the bound kernel (fastscan_cluster.go
// has the contract): the assembly where the CPU has AVX2, bounding over all
// m sub-quantizers (h = m), and elsewhere the portable loop over the first
// half. The index expressions panic before the assembly could read or
// write past a slice.
func fsClusterBounds(masks []byte, lut8 []uint8, m int, tab []uint8, out []uint16) (h int) {
	ngroups := len(out) / fsBlock
	if !fsAVX2 || m <= 0 || ngroups == 0 {
		fsClusterBoundsGo(masks, lut8, m, m/2, tab, out)
		return m / 2
	}
	_, _, _, _ = masks[ngroups*m*2*fsBlock-1], lut8[m*quant.Ks4-1], tab[m*64-1], out[ngroups*fsBlock-1]
	fsClusterBoundsAVX2(&masks[0], ngroups, &lut8[0], m, &tab[0], &out[0])
	return m
}
