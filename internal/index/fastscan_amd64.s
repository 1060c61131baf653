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

// func fsScanAVX2(blocks *byte, nblocks int, lut8 *uint8, np int, limit uint32, qd *[32]uint8) (skipped int, mask uint32)
//
// Walks nblocks fast-scan blocks of np 32-byte strips each and returns the
// index of the first block in which any of the 32 saturated row sums is
// <= limit (unsigned byte compare; limit <= 255), with bit r of mask set for
// each such row r and that block's 32 sums in qd in row order; or nblocks,
// mask 0 and qd untouched, when no block has one. Reads exactly
// nblocks*np*32 bytes at blocks and np*32 bytes at lut8, writes only qd.
//
// Per strip: c = 32 code bytes, one row each; lut8[2p][c & 15] and
// lut8[2p+1][c >> 4] by VPSHUFB, as bytes, each added with unsigned
// saturation into its own accumulator (two dependency chains). Byte r of an
// accumulator is row r's min(255, sum): saturating adds of non-negative
// terms commute with the final clamp, so no order or width of M4 matters.
TEXT ·fsScanAVX2(SB), NOSPLIT, $0-60
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
	VPBROADCASTB X14, Y14 // limit in every byte
	XORQ R9, R9           // block index
	XORL AX, AX           // row mask
	SHLQ $5, R8           // np*32: the bytes of a block, and of lut8

block:
	CMPQ R9, CX
	JGE  done
	VPXOR Y0, Y0, Y0 // low-nibble sums
	VPXOR Y1, Y1, Y1 // high-nibble sums
	XORQ  R10, R10   // byte offset of this strip in the block and in lut8

strip:
	VMOVDQU        (SI)(R10*1), Y4
	VBROADCASTI128 (DX)(R10*1), Y5
	VBROADCASTI128 16(DX)(R10*1), Y6
	VPSRLW         $4, Y4, Y7
	VPAND          Y15, Y4, Y4
	VPAND          Y15, Y7, Y7
	VPSHUFB        Y4, Y5, Y4
	VPSHUFB        Y7, Y6, Y7
	VPADDUSB       Y4, Y0, Y0
	VPADDUSB       Y7, Y1, Y1
	ADDQ           $32, R10
	CMPQ           R10, R8
	JNE            strip
	ADDQ           R8, SI

	VPADDUSB Y1, Y0, Y0

	// x <= limit  <=>  min(x, limit) == x
	VPMINUB   Y14, Y0, Y2
	VPCMPEQB  Y2, Y0, Y2
	VPMOVMSKB Y2, AX
	TESTL     AX, AX
	JNZ       hit
	INCQ      R9
	JMP       block

hit:
	VMOVDQU Y0, (DI)

done:
	VZEROUPPER
	MOVQ R9, skipped+48(FP)
	MOVL AX, mask+56(FP)
	RET
