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

// fsSubsetSel<>+32*i picks entry i of each nibble for the nibble-subset tables
// of fsClusterBoundsAVX2: byte b of lane L is 4L+i where bit i of b is set,
// 0x80 (VPSHUFB: zero) where it is not; adding 8 picks nibbles 2 and 3.
DATA fsSubsetSel<>+0x00(SB)/8, $0x0080008000800080
DATA fsSubsetSel<>+0x08(SB)/8, $0x0080008000800080
DATA fsSubsetSel<>+0x10(SB)/8, $0x0480048004800480
DATA fsSubsetSel<>+0x18(SB)/8, $0x0480048004800480
DATA fsSubsetSel<>+0x20(SB)/8, $0x0101808001018080
DATA fsSubsetSel<>+0x28(SB)/8, $0x0101808001018080
DATA fsSubsetSel<>+0x30(SB)/8, $0x0505808005058080
DATA fsSubsetSel<>+0x38(SB)/8, $0x0505808005058080
DATA fsSubsetSel<>+0x40(SB)/8, $0x0202020280808080
DATA fsSubsetSel<>+0x48(SB)/8, $0x0202020280808080
DATA fsSubsetSel<>+0x50(SB)/8, $0x0606060680808080
DATA fsSubsetSel<>+0x58(SB)/8, $0x0606060680808080
DATA fsSubsetSel<>+0x60(SB)/8, $0x8080808080808080
DATA fsSubsetSel<>+0x68(SB)/8, $0x0303030303030303
DATA fsSubsetSel<>+0x70(SB)/8, $0x8080808080808080
DATA fsSubsetSel<>+0x78(SB)/8, $0x0707070707070707
GLOBL fsSubsetSel<>(SB), RODATA|NOPTR, $128

// func fsClusterBoundsAVX2(masks *byte, ngroups int, lut8 *uint8, m int, tab *uint8, out *uint16)
//
// fsClusterBoundsGo over all m sub-quantizers (h = m; see
// fastscan_cluster.go for the contract and the mask layout), 32 clusters a
// pass. First the nibble-subset tables: per
// sub-quantizer, its 16 entries complemented (255 - x) are picked by
// fsSubsetSel<> with VPSHUFB, a missing entry reading 0, and VPMAXUB over the
// four picks complemented back is each subset's least entry, 255 for the
// empty one. Then per group, per sub-quantizer: the low and high mask
// strips split into nibbles, four VPSHUFB lookups into the tables,
// VPMINUB of the four, widened to words and added with VPADDW (a bound
// never exceeds 65280). Reads ngroups*m*64 bytes at masks and m*16 at
// lut8, writes m*64 bytes at tab and ngroups*32 words at out; ngroups,
// m > 0.
TEXT ·fsClusterBoundsAVX2(SB), NOSPLIT, $0-48
	MOVQ masks+0(FP), SI
	MOVQ ngroups+8(FP), CX
	MOVQ lut8+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ tab+32(FP), DI
	MOVQ out+40(FP), R9

	VMOVDQU      fsSubsetSel<>+0x00(SB), Y8
	VMOVDQU      fsSubsetSel<>+0x20(SB), Y9
	VMOVDQU      fsSubsetSel<>+0x40(SB), Y10
	VMOVDQU      fsSubsetSel<>+0x60(SB), Y11
	MOVL         $0x08080808, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VPADDB       Y15, Y8, Y4
	VPADDB       Y15, Y9, Y5
	VPADDB       Y15, Y10, Y6
	VPADDB       Y15, Y11, Y7
	VPCMPEQB     Y15, Y15, Y15 // all ones
	MOVQ         R8, R10
	MOVQ         DI, R11

tables:
	VBROADCASTI128 (DX), Y0
	VPXOR          Y15, Y0, Y0
	VPSHUFB        Y8, Y0, Y1
	VPSHUFB        Y9, Y0, Y2
	VPMAXUB        Y2, Y1, Y1
	VPSHUFB        Y10, Y0, Y2
	VPMAXUB        Y2, Y1, Y1
	VPSHUFB        Y11, Y0, Y2
	VPMAXUB        Y2, Y1, Y1
	VPXOR          Y15, Y1, Y1 // nibbles 0 and 1
	VPSHUFB        Y4, Y0, Y3
	VPSHUFB        Y5, Y0, Y2
	VPMAXUB        Y2, Y3, Y3
	VPSHUFB        Y6, Y0, Y2
	VPMAXUB        Y2, Y3, Y3
	VPSHUFB        Y7, Y0, Y2
	VPMAXUB        Y2, Y3, Y3
	VPXOR          Y15, Y3, Y3 // nibbles 2 and 3
	VMOVDQU        Y1, (R11)
	VMOVDQU        Y3, 32(R11)
	ADDQ           $16, DX
	ADDQ           $64, R11
	DECQ           R10
	JNZ            tables

	MOVL         $0x0f0f0f0f, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15 // nibble mask
	VPXOR        Y14, Y14, Y14

group:
	VPXOR Y8, Y8, Y8 // sums of clusters 0-7 and 16-23
	VPXOR Y9, Y9, Y9 // sums of clusters 8-15 and 24-31
	MOVQ  DI, R11
	MOVQ  R8, R10

sub:
	VMOVDQU        (SI), Y0   // low mask bytes: nibbles 0 and 1
	VMOVDQU        32(SI), Y1 // high mask bytes: nibbles 2 and 3
	VPSRLW         $4, Y0, Y2
	VPAND          Y15, Y0, Y0
	VPAND          Y15, Y2, Y2
	VPSRLW         $4, Y1, Y3
	VPAND          Y15, Y1, Y1
	VPAND          Y15, Y3, Y3
	VBROADCASTI128 (R11), Y4
	VPSHUFB        Y0, Y4, Y0
	VBROADCASTI128 16(R11), Y4
	VPSHUFB        Y2, Y4, Y2
	VBROADCASTI128 32(R11), Y4
	VPSHUFB        Y1, Y4, Y1
	VBROADCASTI128 48(R11), Y4
	VPSHUFB        Y3, Y4, Y3
	VPMINUB        Y2, Y0, Y0
	VPMINUB        Y3, Y1, Y1
	VPMINUB        Y1, Y0, Y0
	VPUNPCKLBW     Y14, Y0, Y1
	VPUNPCKHBW     Y14, Y0, Y2
	VPADDW         Y1, Y8, Y8
	VPADDW         Y2, Y9, Y9
	ADDQ           $64, SI
	ADDQ           $64, R11
	DECQ           R10
	JNZ            sub

	VPERM2I128 $0x20, Y9, Y8, Y0 // clusters 0-15
	VPERM2I128 $0x31, Y9, Y8, Y1 // clusters 16-31
	VMOVDQU    Y0, (R9)
	VMOVDQU    Y1, 32(R9)
	ADDQ       $64, R9
	DECQ       CX
	JNZ        group

	VZEROUPPER
	RET
