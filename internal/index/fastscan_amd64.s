//go:build amd64 && !purego

#include "textflag.h"

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

// func fsScan4AVX2(blocks *byte, nblocks int, lut8 *uint8, np int, limits *[4]uint32, out *fsRunOut) (skipped int)
//
// fsScanAVX2 for four queries in one pass: lane l's table is the np*32
// bytes at lut8 + l*np*32 and its limit limits[l] (<= 255, read as its low
// byte). Each strip is loaded and split into nibbles once, then shuffled
// against and saturating-added into each lane's own accumulator; a lane's
// sums are exactly what fsScanAVX2 computes for its query alone. Returns
// the index of the first block in which any lane has a row sum <= its
// limit, with every lane's 32 sums in out.qd[l] and row mask in
// out.mask[l] (zero for a lane that admits no row there); or nblocks, all
// four masks 0 and out.qd untouched. Reads exactly nblocks*np*32 bytes at
// blocks and 4*np*32 bytes at lut8, writes only out.
TEXT ·fsScan4AVX2(SB), NOSPLIT, $0-56
	MOVQ blocks+0(FP), SI
	MOVQ nblocks+8(FP), CX
	MOVQ lut8+16(FP), DX
	MOVQ np+24(FP), R8
	MOVQ limits+32(FP), BX
	MOVQ out+40(FP), DI

	MOVL $0x0f0f0f0f, AX
	VMOVQ AX, X15
	VPBROADCASTD X15, Y15 // nibble mask
	VPBROADCASTB 0(BX), Y10 // each lane's limit in every byte
	VPBROADCASTB 4(BX), Y11
	VPBROADCASTB 8(BX), Y12
	VPBROADCASTB 12(BX), Y13
	SHLQ $5, R8              // np*32: the bytes of a block, and of one lane's lut8
	LEAQ (DX)(R8*1), R11     // lane 1's lut8
	LEAQ (R11)(R8*1), R12    // lane 2's
	LEAQ (R12)(R8*1), R13    // lane 3's
	XORQ R9, R9              // block index
	XORL AX, AX              // masks of lanes 0 (low half) and 1 (high half)
	XORL R10, R10            // masks of lanes 2 and 3

block4:
	CMPQ R9, CX
	JGE  done4
	VPXOR Y0, Y0, Y0 // lane sums
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  R10, R10   // byte offset of this strip in the block and in each lut8

strip4:
	VMOVDQU        (SI)(R10*1), Y4
	VPSRLW         $4, Y4, Y5
	VPAND          Y15, Y4, Y4 // low nibbles
	VPAND          Y15, Y5, Y5 // high nibbles
	VBROADCASTI128 (DX)(R10*1), Y6
	VBROADCASTI128 16(DX)(R10*1), Y7
	VPSHUFB        Y4, Y6, Y6
	VPSHUFB        Y5, Y7, Y7
	VPADDUSB       Y6, Y0, Y0
	VPADDUSB       Y7, Y0, Y0
	VBROADCASTI128 (R11)(R10*1), Y8
	VBROADCASTI128 16(R11)(R10*1), Y9
	VPSHUFB        Y4, Y8, Y8
	VPSHUFB        Y5, Y9, Y9
	VPADDUSB       Y8, Y1, Y1
	VPADDUSB       Y9, Y1, Y1
	VBROADCASTI128 (R12)(R10*1), Y6
	VBROADCASTI128 16(R12)(R10*1), Y7
	VPSHUFB        Y4, Y6, Y6
	VPSHUFB        Y5, Y7, Y7
	VPADDUSB       Y6, Y2, Y2
	VPADDUSB       Y7, Y2, Y2
	VBROADCASTI128 (R13)(R10*1), Y8
	VBROADCASTI128 16(R13)(R10*1), Y9
	VPSHUFB        Y4, Y8, Y8
	VPSHUFB        Y5, Y9, Y9
	VPADDUSB       Y8, Y3, Y3
	VPADDUSB       Y9, Y3, Y3
	ADDQ           $32, R10
	CMPQ           R10, R8
	JNE            strip4
	ADDQ           R8, SI

	// x <= limit  <=>  min(x, limit) == x, per lane
	VPMINUB   Y10, Y0, Y4
	VPCMPEQB  Y4, Y0, Y4
	VPMOVMSKB Y4, AX
	VPMINUB   Y11, Y1, Y5
	VPCMPEQB  Y5, Y1, Y5
	VPMOVMSKB Y5, BX
	SHLQ      $32, BX
	ORQ       BX, AX
	VPMINUB   Y12, Y2, Y6
	VPCMPEQB  Y6, Y2, Y6
	VPMOVMSKB Y6, R10
	VPMINUB   Y13, Y3, Y7
	VPCMPEQB  Y7, Y3, Y7
	VPMOVMSKB Y7, BX
	SHLQ      $32, BX
	ORQ       BX, R10
	MOVQ      AX, BX
	ORQ       R10, BX
	JNZ       hit4
	INCQ      R9
	JMP       block4

hit4:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)

done4:
	VZEROUPPER
	MOVQ AX, 128(DI)
	MOVQ R10, 136(DI)
	MOVQ R9, skipped+48(FP)
	RET
