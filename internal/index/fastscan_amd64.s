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

// Lane b of fsbSel<>+32*i has its sign bit set when bit i of b is: the
// blend masks that build a nibble-subset table's low half (subsets 0-7).
DATA fsbSel<>+0x00(SB)/4, $0
DATA fsbSel<>+0x04(SB)/4, $0x80000000
DATA fsbSel<>+0x08(SB)/4, $0
DATA fsbSel<>+0x0c(SB)/4, $0x80000000
DATA fsbSel<>+0x10(SB)/4, $0
DATA fsbSel<>+0x14(SB)/4, $0x80000000
DATA fsbSel<>+0x18(SB)/4, $0
DATA fsbSel<>+0x1c(SB)/4, $0x80000000
DATA fsbSel<>+0x20(SB)/4, $0
DATA fsbSel<>+0x24(SB)/4, $0
DATA fsbSel<>+0x28(SB)/4, $0x80000000
DATA fsbSel<>+0x2c(SB)/4, $0x80000000
DATA fsbSel<>+0x30(SB)/4, $0
DATA fsbSel<>+0x34(SB)/4, $0
DATA fsbSel<>+0x38(SB)/4, $0x80000000
DATA fsbSel<>+0x3c(SB)/4, $0x80000000
DATA fsbSel<>+0x40(SB)/4, $0
DATA fsbSel<>+0x44(SB)/4, $0
DATA fsbSel<>+0x48(SB)/4, $0
DATA fsbSel<>+0x4c(SB)/4, $0
DATA fsbSel<>+0x50(SB)/4, $0x80000000
DATA fsbSel<>+0x54(SB)/4, $0x80000000
DATA fsbSel<>+0x58(SB)/4, $0x80000000
DATA fsbSel<>+0x5c(SB)/4, $0x80000000
GLOBL fsbSel<>(SB), RODATA|NOPTR, $96

// func fsNibMinAVX2(table *float32, m int, nib *float32)
//
// The nibble-subset tables of fsClusterBounds (fastscan_cluster.go): for
// each of the m*4 nibbles (4 consecutive table entries), 16 floats at nib,
// entry b the least entry over the bits of b (+Inf for b = 0). Reads m*16
// floats at table, writes m*64 at nib; m > 0.
TEXT ·fsNibMinAVX2(SB), NOSPLIT, $0-24
	MOVQ table+0(FP), DX
	MOVQ m+8(FP), R10
	MOVQ nib+16(FP), R11

	MOVL         $0x7f800000, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15 // +Inf
	VMOVDQU      fsbSel<>+0x00(SB), Y8
	VMOVDQU      fsbSel<>+0x20(SB), Y9
	VMOVDQU      fsbSel<>+0x40(SB), Y10
	SHLQ         $2, R10 // m*4 nibbles

tables:
	VBROADCASTSS (DX), Y1
	VBLENDVPS    Y8, Y1, Y15, Y0
	VBROADCASTSS 4(DX), Y1
	VBLENDVPS    Y9, Y1, Y15, Y1
	VMINPS       Y1, Y0, Y0
	VBROADCASTSS 8(DX), Y1
	VBLENDVPS    Y10, Y1, Y15, Y1
	VMINPS       Y1, Y0, Y0 // subsets 0-7 of entries 0-2
	VBROADCASTSS 12(DX), Y1
	VMINPS       Y1, Y0, Y2 // subsets 8-15 hold entry 3 too
	VMOVUPS      Y0, (R11)
	VMOVUPS      Y2, 32(R11)
	ADDQ         $16, DX
	ADDQ         $64, R11
	DECQ         R10
	JNZ          tables

	VZEROUPPER
	RET

// func fsBoundsAVX2(masks *uint16, ngroups int, nib *float32, m int, out *float32)
//
// fsClusterBounds for ngroups groups of 8 clusters over fsNibMinAVX2's
// tables at nib (see fastscan_cluster.go for the contract and the mask
// layout): per group, per sub-quantizer p in ascending order, the 8
// clusters' masks, each nibble's 4-bit index looked up with VPERMPS in the
// two halves of its table and the halves blended on the index's bit 3, the
// four minima minimized and added into the group's sums. Reads
// ngroups*m*8 masks and m*64 floats at nib, writes ngroups*8 floats at
// out; ngroups, m > 0.
TEXT ·fsBoundsAVX2(SB), NOSPLIT, $0-40
	MOVQ masks+0(FP), SI
	MOVQ ngroups+8(FP), CX
	MOVQ nib+16(FP), DI
	MOVQ m+24(FP), R8
	MOVQ out+32(FP), R9

	MOVL         $15, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14 // nibble mask

group:
	VXORPS Y7, Y7, Y7 // the 8 sums
	MOVQ   DI, R11
	MOVQ   R8, R10

sub:
	VPMOVZXWD (SI), Y0 // 8 masks
	VPAND     Y14, Y0, Y1
	VPERMPS   (R11), Y1, Y2
	VPERMPS   32(R11), Y1, Y3
	VPSLLD    $28, Y1, Y4
	VBLENDVPS Y4, Y3, Y2, Y5
	VPSRLD    $4, Y0, Y1
	VPAND     Y14, Y1, Y1
	VPERMPS   64(R11), Y1, Y2
	VPERMPS   96(R11), Y1, Y3
	VPSLLD    $28, Y1, Y4
	VBLENDVPS Y4, Y3, Y2, Y6
	VMINPS    Y6, Y5, Y5
	VPSRLD    $8, Y0, Y1
	VPAND     Y14, Y1, Y1
	VPERMPS   128(R11), Y1, Y2
	VPERMPS   160(R11), Y1, Y3
	VPSLLD    $28, Y1, Y4
	VBLENDVPS Y4, Y3, Y2, Y6
	VPSRLD    $12, Y0, Y1
	VPERMPS   192(R11), Y1, Y2
	VPERMPS   224(R11), Y1, Y3
	VPSLLD    $28, Y1, Y4
	VBLENDVPS Y4, Y3, Y2, Y4
	VMINPS    Y4, Y6, Y6
	VMINPS    Y6, Y5, Y5
	VADDPS    Y5, Y7, Y7
	ADDQ      $16, SI
	ADDQ      $256, R11
	DECQ      R10
	JNZ       sub

	VMOVUPS Y7, (R9)
	ADDQ    $32, R9
	DECQ    CX
	JNZ     group

	VZEROUPPER
	RET
