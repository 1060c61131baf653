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
func fsNibMinAVX2(table *float32, m int, nib *float32)

//go:noescape
func fsBoundsAVX2(masks *uint16, ngroups int, nib *float32, m int, out *float32)

// fsNibMins and fsGroupBounds are the one door to the bound kernels
// (fastscan_cluster.go has the contract): the assembly where the CPU has
// AVX2, the portable loops elsewhere. The index expressions panic before
// the assembly could read or write past a slice.
func fsNibMins(table []float32, m int, nib []float32) {
	if !fsAVX2 {
		fsNibMinsGo(table, m, nib)
		return
	}
	if m <= 0 {
		return
	}
	_, _ = table[m*quant.Ks4-1], nib[m*64-1]
	fsNibMinAVX2(&table[0], m, &nib[0])
}

func fsGroupBounds(masks []uint16, nib []float32, m int, out []float32) {
	if !fsAVX2 {
		fsGroupBoundsGo(masks, nib, m, out)
		return
	}
	ngroups := len(out) / fsGroup
	if m <= 0 || ngroups == 0 {
		return
	}
	_, _, _ = masks[ngroups*m*fsGroup-1], nib[m*64-1], out[ngroups*fsGroup-1]
	fsBoundsAVX2(&masks[0], ngroups, &nib[0], m, &out[0])
}
