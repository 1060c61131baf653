//go:build amd64 && !purego

#include "textflag.h"

// func quantizeRows4AVX2(lut8 *uint8, table, mins *float32, m int, inv float32)
//
// For each of m rows of 16 float32 entries at table: q = (entry − min)·inv
// (VSUBPS, VMULPS: the same two float32 roundings as the scalar loop),
// clamped to 255 by VMINPS with q as the second source, so a NaN stays NaN
// as in the scalar `q >= 255` test; truncated to int32 (VCVTTPS2DQ, as
// Go's conversion: NaN becomes 0x80000000); then packed to bytes with
// signed and unsigned saturation, which maps 0..255 to itself and every
// negative lane, 0x80000000 included, to 0 — the low byte the scalar
// uint8(int32(q)) keeps. Writes 16 bytes per row at lut8.
TEXT ·quantizeRows4AVX2(SB), NOSPLIT, $0-36
	MOVQ         lut8+0(FP), DI
	MOVQ         table+8(FP), SI
	MOVQ         mins+16(FP), DX
	MOVQ         m+24(FP), CX
	VBROADCASTSS inv+32(FP), Y15
	MOVL         $0x437f0000, AX // 255.0
	VMOVD        AX, X14
	VBROADCASTSS X14, Y14

row:
	VBROADCASTSS (DX), Y0
	VMOVUPS      (SI), Y1
	VMOVUPS      32(SI), Y2
	VSUBPS       Y0, Y1, Y1
	VSUBPS       Y0, Y2, Y2
	VMULPS       Y15, Y1, Y1
	VMULPS       Y15, Y2, Y2
	VMINPS       Y1, Y14, Y1 // 255 < q ? 255 : q
	VMINPS       Y2, Y14, Y2
	VCVTTPS2DQ   Y1, Y1
	VCVTTPS2DQ   Y2, Y2
	VPACKSSDW    Y2, Y1, Y1  // per 128-bit lane: entries 0-3, 8-11 | 4-7, 12-15
	VPERMQ       $0xd8, Y1, Y1 // entries 0-7 | 8-15
	VEXTRACTI128 $1, Y1, X2
	VPACKUSWB    X2, X1, X1
	VMOVDQU      X1, (DI)
	ADDQ         $4, DX
	ADDQ         $64, SI
	ADDQ         $16, DI
	DECQ         CX
	JNZ          row
	VZEROUPPER
	RET

// func rowSpans4AVX2(table *float32, m int, mins, maxs *float32)
//
// The smallest and largest of each of m rows of 16 float32 entries at
// table, as the scalar loop's strict compares find them from the row's
// first entry on: every entry is compared against an accumulator seeded
// with entry 0 (VMINPS/VMAXPS return their second source, the accumulator,
// on a NaN or a tie), so a NaN entry 0 poisons the row and any later NaN is
// passed over. Ties between +0 and −0 may resolve to either sign; the
// caller redoes a row whose result is a zero.
TEXT ·rowSpans4AVX2(SB), NOSPLIT, $0-32
	MOVQ table+0(FP), SI
	MOVQ m+8(FP), CX
	MOVQ mins+16(FP), DI
	MOVQ maxs+24(FP), DX

span:
	VBROADCASTSS (SI), Y0
	VMOVUPS      (SI), Y1
	VMOVUPS      32(SI), Y2
	VMINPS       Y0, Y1, Y3 // Y1 < Y0 ? Y1 : Y0
	VMINPS       Y3, Y2, Y3
	VMAXPS       Y0, Y1, Y4 // Y1 > Y0 ? Y1 : Y0
	VMAXPS       Y4, Y2, Y4
	VEXTRACTF128 $1, Y3, X5
	VMINPS       X3, X5, X3
	VPERMILPS    $0x4e, X3, X5
	VMINPS       X3, X5, X3
	VPERMILPS    $0xb1, X3, X5
	VMINPS       X3, X5, X3
	VMOVSS       X3, (DI)
	VEXTRACTF128 $1, Y4, X5
	VMAXPS       X4, X5, X4
	VPERMILPS    $0x4e, X4, X5
	VMAXPS       X4, X5, X4
	VPERMILPS    $0xb1, X4, X5
	VMAXPS       X4, X5, X4
	VMOVSS       X4, (DX)
	ADDQ         $64, SI
	ADDQ         $4, DI
	ADDQ         $4, DX
	DECQ         CX
	JNZ          span
	VZEROUPPER
	RET
