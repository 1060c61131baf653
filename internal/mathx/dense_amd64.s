//go:build amd64 && !purego

#include "textflag.h"

// func matVecTilesAVX2(w, x, out *float32, n, groups, tiles int)
//
// Writes out[r] = w[r][0]·x[0] + … + w[r][8·tiles−1]·x[8·tiles−1], summed
// in that order from +0, for the 8·groups rows r of the row-major matrix w
// (n floats a row). Needs groups, tiles >= 1 and n >= 8·tiles.
//
// Lane i of an accumulator is row i of a group of eight. Each 8×8 tile of
// the group's weights is read as two halves of four columns: the rows' low
// four floats in the low 128 bits and rows 4–7's in the high (VINSERTF128),
// multiplied by x's four columns broadcast to both halves, then transposed
// in each 128-bit half (VUNPCKLPS/VUNPCKHPS, VSHUFPS) so that one register
// holds one column's eight products. The column registers are added into
// the accumulator in column order. Every product is VMULPS with the weight
// first and every add VADDPS with the sum first, never fused: the lane's
// sum is Dot's s += float32(w·x) bit for bit.
//
// Two groups share each pass over x (accumulators Y0, Y1), so their chains
// of adds overlap; a last odd group takes a pass of its own.

// HALF(lo, hi, off, xv, acc): columns off/4 .. off/4+3 of the tile whose
// rows 0–3 start at lo and rows 4–7 at hi (R8 = bytes a row, R9 = 3 rows).
#define HALF(lo, hi, off, xv, acc) \
	VMOVUPS     off(lo), X4; \
	VMOVUPS     off(lo)(R8*1), X5; \
	VMOVUPS     off(lo)(R8*2), X6; \
	VMOVUPS     off(lo)(R9*1), X7; \
	VINSERTF128 $1, off(hi), Y4, Y4; \
	VINSERTF128 $1, off(hi)(R8*1), Y5, Y5; \
	VINSERTF128 $1, off(hi)(R8*2), Y6, Y6; \
	VINSERTF128 $1, off(hi)(R9*1), Y7, Y7; \
	VMULPS      xv, Y4, Y4; \
	VMULPS      xv, Y5, Y5; \
	VMULPS      xv, Y6, Y6; \
	VMULPS      xv, Y7, Y7; \
	VUNPCKLPS   Y5, Y4, Y8; \
	VUNPCKHPS   Y5, Y4, Y9; \
	VUNPCKLPS   Y7, Y6, Y10; \
	VUNPCKHPS   Y7, Y6, Y11; \
	VSHUFPS     $0x44, Y10, Y8, Y4; \
	VSHUFPS     $0xee, Y10, Y8, Y5; \
	VSHUFPS     $0x44, Y11, Y9, Y6; \
	VSHUFPS     $0xee, Y11, Y9, Y7; \
	VADDPS      Y4, acc, acc; \
	VADDPS      Y5, acc, acc; \
	VADDPS      Y6, acc, acc; \
	VADDPS      Y7, acc, acc

// TILE(lo, hi, acc): the eight columns of the tile at the cursors.
#define TILE(lo, hi, acc) \
	HALF(lo, hi, 0, Y2, acc); \
	HALF(lo, hi, 16, Y3, acc)

// XCOLS: x's next eight columns, each half broadcast to both lanes.
#define XCOLS \
	VBROADCASTF128 (AX), Y2; \
	VBROADCASTF128 16(AX), Y3

TEXT ·matVecTilesAVX2(SB), NOSPLIT, $0-48
	MOVQ x+8(FP), SI
	MOVQ out+16(FP), DX
	MOVQ n+24(FP), R8
	SHLQ $2, R8          // bytes a row
	LEAQ (R8)(R8*2), R9  // bytes three rows
	MOVQ groups+32(FP), CX
	MOVQ tiles+40(FP), BX
	SHLQ $5, BX
	ADDQ SI, BX          // end of x's tiled columns
	MOVQ w+0(FP), DI

pair:
	CMPQ   CX, $2
	JLT    single
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, AX
	MOVQ   DI, R10
	LEAQ   (DI)(R8*4), R11
	LEAQ   (DI)(R8*8), R12
	LEAQ   (R12)(R8*4), R13

tiles2:
	XCOLS
	TILE(R10, R11, Y0)
	TILE(R12, R13, Y1)
	ADDQ    $32, AX
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, R12
	ADDQ    $32, R13
	CMPQ    AX, BX
	JNE     tiles2
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    $64, DX
	LEAQ    (DI)(R8*8), DI
	LEAQ    (DI)(R8*8), DI
	SUBQ    $2, CX
	JMP     pair

single:
	TESTQ  CX, CX
	JZ     done
	VXORPS Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   DI, R10
	LEAQ   (DI)(R8*4), R11

tiles1:
	XCOLS
	TILE(R10, R11, Y0)
	ADDQ    $32, AX
	ADDQ    $32, R10
	ADDQ    $32, R11
	CMPQ    AX, BX
	JNE     tiles1
	VMOVUPS Y0, (DX)

done:
	VZEROUPPER
	RET

// func axpyAVX2(alpha float32, x, y *float32, blocks int)
//
// y[i] += alpha·x[i] for i < 8·blocks: VMULPS with alpha first, then VADDPS
// with y first, never fused, so each element is Axpy's
// y[i] += float32(alpha*x[i]) bit for bit. Four blocks per pass keep four
// independent loads, products and stores in flight. Needs blocks >= 1.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y15
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         blocks+24(FP), CX

axpy4:
	CMPQ    CX, $4
	JLT     axpy1
	VMULPS  (SI), Y15, Y0
	VMULPS  32(SI), Y15, Y1
	VMULPS  64(SI), Y15, Y2
	VMULPS  96(SI), Y15, Y3
	VMOVUPS (DI), Y4
	VMOVUPS 32(DI), Y5
	VMOVUPS 64(DI), Y6
	VMOVUPS 96(DI), Y7
	VADDPS  Y0, Y4, Y4
	VADDPS  Y1, Y5, Y5
	VADDPS  Y2, Y6, Y6
	VADDPS  Y3, Y7, Y7
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	VMOVUPS Y6, 64(DI)
	VMOVUPS Y7, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $4, CX
	JMP     axpy4

axpy1:
	TESTQ   CX, CX
	JZ      axpydone
	VMULPS  (SI), Y15, Y0
	VMOVUPS (DI), Y4
	VADDPS  Y0, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JMP     axpy1

axpydone:
	VZEROUPPER
	RET
