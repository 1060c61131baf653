//go:build amd64 && !purego

#include "textflag.h"

// func convBlockAVX2(y, x, w, b *float32, l, in, out, k, xoff int, masks *[8][8]int32, store *[8]int32, relu bool)
//
// Computes columns t0..t0+7 of every output row of a Conv1D: y points at
// column t0 of row 0, rows are l floats apart in x and y and in*k apart in
// w, and tap k of input row i reads x[i][xoff+k ..], xoff = t0 - pad.
// masks[k] marks the lanes whose input column of tap k lies in [0, l); a
// tap whose mask is full is one plain load, any other a masked load whose
// add is blended into the masked lanes only. With store nil all 8 lanes
// are stored, else only store's. Needs in, out, k >= 1; reads and writes
// nothing outside the rows and masked columns above.
//
// Lane j of accumulator Y0..Y3 is output (o, t0+j) for four rows o at a
// time (a short last group repeats row out-1 and rewrites it with the same
// bits). Each starts at the bias and then, per (i, k) in order and only for
// a non-zero weight, takes acc + w*x as VMULPS then VADDPS — the scalar
// loop's operations in the scalar loop's order, never fused. relu keeps
// max(v, 0) as v < 0 (ordered) ? +0 : v, so −0 and NaN pass unchanged.

// ROWOF: CX = min(R10 + j, AX), the j-th row of the group (AX = out-1).
#define ROWOF(j) LEAQ j(R10), CX; CMPQ CX, AX; CMOVQGT AX, CX

// FULL / PART: one tap (weight index CX, input lanes in Y12, lane mask in
// Y13) for the row whose weights start at w, accumulating in acc.
#define FULL(w, acc, skip) \
	MOVL (w)(CX*4), AX; ADDL AX, AX; JZ skip; \
	VBROADCASTSS (w)(CX*4), Y11; VMULPS Y12, Y11, Y11; VADDPS Y11, acc, acc; \
skip:

#define PART(w, acc, skip) \
	MOVL (w)(CX*4), AX; ADDL AX, AX; JZ skip; \
	VBROADCASTSS (w)(CX*4), Y11; VMULPS Y12, Y11, Y11; VADDPS Y11, acc, Y11; \
	VBLENDVPS Y13, Y11, acc, acc; \
skip:

#define RELU(acc) VCMPPS $0x11, Y15, acc, Y14; VANDNPS acc, Y14, acc

TEXT ·convBlockAVX2(SB), NOSPLIT, $0-89
	MOVQ k+56(FP), R9
	MOVQ l+32(FP), R8
	SUBQ R9, R8
	SHLQ $2, R8    // bytes from a row's tap k to the next row's tap 0
	XORQ R10, R10  // first row of the group

group:
	MOVQ out+48(FP), AX
	CMPQ R10, AX
	JGE  done
	DECQ AX
	MOVQ in+40(FP), BX
	IMULQ R9, BX   // weights per row
	MOVQ w+16(FP), DX
	MOVQ b+24(FP), SI
	ROWOF(0); VBROADCASTSS (SI)(CX*4), Y0; IMULQ BX, CX; LEAQ (DX)(CX*4), R11
	ROWOF(1); VBROADCASTSS (SI)(CX*4), Y1; IMULQ BX, CX; LEAQ (DX)(CX*4), R12
	ROWOF(2); VBROADCASTSS (SI)(CX*4), Y2; IMULQ BX, CX; LEAQ (DX)(CX*4), R13
	ROWOF(3); VBROADCASTSS (SI)(CX*4), Y3; IMULQ BX, CX; LEAQ (DX)(CX*4), R14

	MOVQ x+8(FP), SI
	MOVQ xoff+64(FP), CX
	LEAQ (SI)(CX*4), SI // input row 0 at tap 0
	XORQ CX, CX         // weight index i*k + tap
	MOVQ in+40(FP), DI

row:
	MOVQ masks+72(FP), DX
	MOVQ R9, BX

tap:
	VMOVDQU   (DX), Y13
	VMOVMSKPS Y13, AX
	CMPL      AX, $0xff
	JNE       partial
	VMOVUPS   (SI), Y12
	FULL(R11, Y0, full0)
	FULL(R12, Y1, full1)
	FULL(R13, Y2, full2)
	FULL(R14, Y3, full3)
	JMP       next

partial:
	VMASKMOVPS (SI), Y13, Y12
	PART(R11, Y0, part0)
	PART(R12, Y1, part1)
	PART(R13, Y2, part2)
	PART(R14, Y3, part3)

next:
	ADDQ $4, SI
	ADDQ $32, DX
	INCQ CX
	DECQ BX
	JNZ  tap
	ADDQ R8, SI
	DECQ DI
	JNZ  row

	MOVBLZX relu+88(FP), AX
	TESTL   AX, AX
	JZ      store
	VXORPS  Y15, Y15, Y15
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)

store:
	MOVQ out+48(FP), AX
	DECQ AX
	MOVQ l+32(FP), BX
	MOVQ y+0(FP), DX
	ROWOF(0); IMULQ BX, CX; LEAQ (DX)(CX*4), R11
	ROWOF(1); IMULQ BX, CX; LEAQ (DX)(CX*4), R12
	ROWOF(2); IMULQ BX, CX; LEAQ (DX)(CX*4), R13
	ROWOF(3); IMULQ BX, CX; LEAQ (DX)(CX*4), R14
	MOVQ  store+80(FP), SI
	TESTQ SI, SI
	JNZ   storeshort
	VMOVUPS Y0, (R11)
	VMOVUPS Y1, (R12)
	VMOVUPS Y2, (R13)
	VMOVUPS Y3, (R14)
	ADDQ $4, R10
	JMP  group

storeshort:
	VMOVDQU    (SI), Y13
	VMASKMOVPS Y0, Y13, (R11)
	VMASKMOVPS Y1, Y13, (R12)
	VMASKMOVPS Y2, Y13, (R13)
	VMASKMOVPS Y3, Y13, (R14)
	ADDQ $4, R10
	JMP  group

done:
	VZEROUPPER
	RET
