//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func fsScanAVX2(blocks *byte, nblocks int, lut8 *uint8, np int, limit uint32, qd *[32]uint16) int
//
// Walks nblocks fast-scan blocks of np 32-byte strips each and returns the
// index of the first block in which any of the 32 row sums is <= limit
// (unsigned 16-bit compare), with that block's sums in qd in row order; or
// nblocks, qd untouched, when no block has one. Reads exactly
// nblocks*np*32 bytes at blocks and np*32 bytes at lut8, writes only qd.
//
// Per strip: c = 32 code bytes, one row each; v = lut8[2p][c & 15] and
// lut8[2p+1][c >> 4] by VPSHUFB, as bytes. A word of v is
// v[2j] + 256*v[2j+1], so with A += v and B += v >> 8 as words, B is the
// exact sum for the odd rows (<= M4*255 <= 65535) and A - (B << 8) mod 2^16
// the exact sum for the even rows: the wrap in A cancels. The two nibbles
// accumulate into separate register pairs to halve the dependency chains.
TEXT ·fsScanAVX2(SB), NOSPLIT, $0-56
	MOVQ blocks+0(FP), SI
	MOVQ nblocks+8(FP), CX
	MOVQ lut8+16(FP), DX
	MOVQ np+24(FP), R8
	MOVL limit+32(FP), AX
	MOVQ qd+40(FP), DI

	MOVL $0x0f0f0f0f, BX
	VMOVQ BX, X15
	VPBROADCASTD X15, Y15 // nibble mask
	VMOVQ AX, X14
	VPBROADCASTW X14, Y14 // limit in every word
	XORQ R9, R9           // block index

block:
	CMPQ R9, CX
	JGE  done
	VPXOR Y0, Y0, Y0 // A, low nibbles
	VPXOR Y1, Y1, Y1 // B, low nibbles
	VPXOR Y2, Y2, Y2 // A, high nibbles
	VPXOR Y3, Y3, Y3 // B, high nibbles
	MOVQ  DX, R10    // lut8 row pair of this strip
	MOVQ  R8, R11    // strips left

strip:
	VMOVDQU        (SI), Y4
	VBROADCASTI128 (R10), Y5
	VBROADCASTI128 16(R10), Y6
	VPSRLW         $4, Y4, Y7
	VPAND          Y15, Y4, Y4
	VPAND          Y15, Y7, Y7
	VPSHUFB        Y4, Y5, Y4
	VPSHUFB        Y7, Y6, Y7
	VPADDW         Y4, Y0, Y0
	VPSRLW         $8, Y4, Y4
	VPADDW         Y4, Y1, Y1
	VPADDW         Y7, Y2, Y2
	VPSRLW         $8, Y7, Y7
	VPADDW         Y7, Y3, Y3
	ADDQ           $32, SI
	ADDQ           $32, R10
	DECQ           R11
	JNZ            strip

	VPADDW Y2, Y0, Y0
	VPADDW Y3, Y1, Y1 // odd rows 1, 3, ..., 31
	VPSLLW $8, Y1, Y2
	VPSUBW Y2, Y0, Y0 // even rows 0, 2, ..., 30

	// x <= limit  <=>  min(x, limit) == x
	VPMINUW   Y14, Y0, Y2
	VPCMPEQW  Y2, Y0, Y2
	VPMINUW   Y14, Y1, Y3
	VPCMPEQW  Y3, Y1, Y3
	VPOR      Y2, Y3, Y2
	VPMOVMSKB Y2, AX
	TESTL     AX, AX
	JNZ       hit
	INCQ      R9
	JMP       block

hit:
	// Interleave even and odd back into row order. The unpacks work per
	// 128-bit lane: lo holds rows 0-7 | 16-23, hi rows 8-15 | 24-31.
	VPUNPCKLWD Y1, Y0, Y2
	VPUNPCKHWD Y1, Y0, Y3
	VPERM2I128 $0x20, Y3, Y2, Y4 // rows 0-15
	VPERM2I128 $0x31, Y3, Y2, Y5 // rows 16-31
	VMOVDQU    Y4, (DI)
	VMOVDQU    Y5, 32(DI)

done:
	VZEROUPPER
	MOVQ R9, ret+48(FP)
	RET
