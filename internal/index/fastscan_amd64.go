//go:build amd64 && !purego

package index

import "emblookup/internal/quant"

// fsAVX2 reports whether the assembly kernel can run here: the CPU has AVX2
// and the OS saves the YMM state. Detected once, by hand — the module
// depends on nothing that exports it.
var fsAVX2 = detectAVX2()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

//go:noescape
func fsScanAVX2(blocks *byte, nblocks int, lut8 *uint8, np int, limit uint32, qd *[fsBlock]uint8) (skipped int, mask uint32)

// fsScanRun is the one door to the assembly kernel (see fastscan_amd64.s
// for its contract), which has no bounds checks of its own: the index
// expressions here panic on a blocks or lut8 shorter than the run, before
// the kernel can read past either — blocks may be a read-only mapping with
// nothing behind it. A limit of 255 or more admits every saturated sum.
func fsScanRun(blocks []byte, lut8 []uint8, np, nblocks int, limit uint32, qd *[fsBlock]uint8) (skipped int, mask uint32) {
	if nblocks <= 0 {
		return 0, 0
	}
	_, _ = blocks[nblocks*np*fsBlock-1], lut8[2*np*quant.Ks4-1]
	return fsScanAVX2(&blocks[0], nblocks, &lut8[0], np, min(limit, 0xff), qd)
}
