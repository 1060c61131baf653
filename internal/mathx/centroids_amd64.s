//go:build amd64 && !purego

#include "textflag.h"

// func squaredL2ColsAVX2(q, cols, dst *float32, d, stride, groups int, last *int32)
//
// Writes the squared distances from q[0..d) to groups × 8 centroids into
// dst, the last group's lanes only where last[0..8) is all ones: lane i of
// group g is the centroid whose coordinate j is cols[j*stride + 8g + i].
// Needs d, groups >= 1; reads q[0..d) and 8·groups columns of d rows of
// cols, writes dst only in the lanes it is asked for.
//
// Four groups share each pass over q (accumulators Y0..Y3); a remainder of
// two or three groups takes a pass of two, and one group a pass of its own.
// Every accumulator starts at +0 and, per coordinate j in order, takes
// acc + (q[j] − c)·(q[j] − c) as VSUBPS, VMULPS, VADDPS with SquaredL2's
// operands in SquaredL2's places (q first in the subtract, the sum first in
// the add), never fused.

// STEP(off, acc): one coordinate of the group at byte offset off.
#define STEP(off, acc) \
	VSUBPS off(R10), Y15, Y4; \
	VMULPS Y4, Y4, Y4; \
	VADDPS Y4, acc, acc

// BEGIN: start the cursors at q[0] and the pass's first column.
#define BEGIN MOVQ SI, R9; MOVQ DI, R10; MOVQ BX, R11

// NEXT(label): advance to the next coordinate, loop while any are left.
#define NEXT(label) ADDQ $4, R9; ADDQ R8, R10; DECQ R11; JNZ label

// STORE(width, acc, off, masked, stored): the pass's last group, under the
// mask Y14 when the pass is the final one (CX == width).
#define STORE(width, acc, off, masked, stored) \
	CMPQ CX, width; \
	JEQ  masked; \
	VMOVUPS acc, off(DX); \
	JMP  stored; \
masked: \
	VMASKMOVPS acc, Y14, off(DX); \
stored:

TEXT ·squaredL2ColsAVX2(SB), NOSPLIT, $0-56
	MOVQ    q+0(FP), SI
	MOVQ    cols+8(FP), DI
	MOVQ    dst+16(FP), DX
	MOVQ    d+24(FP), BX
	MOVQ    stride+32(FP), R8
	SHLQ    $2, R8 // bytes from one coordinate's row to the next
	MOVQ    groups+40(FP), CX
	MOVQ    last+48(FP), AX
	VMOVDQU (AX), Y14

pass4:
	CMPQ   CX, $4
	JLT    pass2
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	BEGIN

dim4:
	VBROADCASTSS (R9), Y15
	STEP(0, Y0)
	STEP(32, Y1)
	STEP(64, Y2)
	STEP(96, Y3)
	NEXT(dim4)
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	STORE($4, Y3, 96, masked4, stored4)
	ADDQ    $128, DI
	ADDQ    $128, DX
	SUBQ    $4, CX
	JMP     pass4

pass2:
	CMPQ   CX, $2
	JLT    pass1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	BEGIN

dim2:
	VBROADCASTSS (R9), Y15
	STEP(0, Y0)
	STEP(32, Y1)
	NEXT(dim2)
	VMOVUPS Y0, (DX)
	STORE($2, Y1, 32, masked2, stored2)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $2, CX
	JMP     pass2

pass1:
	TESTQ  CX, CX
	JZ     done
	VXORPS Y0, Y0, Y0
	BEGIN

dim1:
	VBROADCASTSS (R9), Y15
	STEP(0, Y0)
	NEXT(dim1)
	VMASKMOVPS Y0, Y14, (DX) // a pass of one is always the final one

done:
	VZEROUPPER
	RET
