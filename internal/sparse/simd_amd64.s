//go:build !race

#include "textflag.h"

// AVX2 bodies of the DIA group kernels, of CG's vector kernels and of the
// range dot (DESIGN §5). Each computes what its Go body computes,
// operation for operation: four rows (or elements) per YMM register, one
// per lane, with every product a VMULPD and every sum a VADDPD, never a
// fused multiply-add, so each lane runs its row's Go chain of additions
// in the Go order; the len mod 4 rows left over run the same chain in
// scalar form. A row sum written fresh starts from +0.0 (VXORPD), not
// from its first product. A reduction keeps the package's order
// (fused.go): row k's term goes to lane k&3, so the four lanes of the
// order are the four lanes of one YMM accumulator, fed a four-row
// product vector by one VADDPD. The lanes come in and go back through
// acc; the four-row loop holds them in a register and stores them when
// it ends, and the tail rows, 0–3 of them, add to lanes 0–2 in memory.
// Every body ends with VZEROUPPER: the Go code after it uses SSE.

// The DIA bodies: y in DI, w in DX, the row index k in SI, and in CX the
// rows the four-row loop covers; diagonal j's values in R8–R11 and its
// x window in AX, BX, R12, R13; the lanes of <y,w> and <y,y> at (R14)
// and 32(R14), in Y4 and Y5 through the four-row loop.
#define DIAGS(vs, xs) \
	MOVQ 0(vs), R8; MOVQ 24(vs), R9; MOVQ 48(vs), R10; MOVQ 72(vs), R11; \
	MOVQ 0(xs), AX; MOVQ 24(xs), BX; MOVQ 48(xs), R12; MOVQ 72(xs), R13

// P4 adds one diagonal's products to the four row sums in Y0, P1 to the
// one in X0.
#define P4(v, x) VMOVUPD (v)(SI*8), Y1; VMULPD (x)(SI*8), Y1, Y1; VADDPD Y1, Y0, Y0
#define P1(v, x) VMOVSD (v)(SI*8), X1; VMULSD (x)(SI*8), X1, X1; VADDSD X1, X0, X0

// SUMn_g adds a group of width g in ascending offset order.
#define SUM4_1 P4(R8, AX)
#define SUM4_2 SUM4_1; P4(R9, BX)
#define SUM4_3 SUM4_2; P4(R10, R12)
#define SUM4_4 SUM4_3; P4(R11, R13)
#define SUM1_1 P1(R8, AX)
#define SUM1_2 SUM1_1; P1(R9, BX)
#define SUM1_3 SUM1_2; P1(R10, R12)
#define SUM1_4 SUM1_3; P1(R11, R13)

// How a row sum starts: from +0.0 (write) or from y (accumulate).
#define ZERO4 VXORPD Y0, Y0, Y0
#define ZERO1 VXORPD X0, X0, X0
#define LOAD4 VMOVUPD (DI)(SI*8), Y0
#define LOAD1 VMOVSD (DI)(SI*8), X0

// LANE1 adds the scalar term t to the lane R (a register holding its
// address) points at, lane first as the Go body adds it, and steps R to
// the next lane: tail row k of a range runs in lane k&3.
#define LANE1(t, R) VMOVSD (R), X6; VADDSD t, X6, X6; VMOVSD X6, (R); ADDQ $8, R

// The terms y[k]·w[k] and y[k]·y[k] of the finished rows. w is loaded
// after y is stored: w may alias y. STORE2 hands the four-row loop's
// lanes to memory for the tail.
#define NONE
#define DOT4 VMULPD (DX)(SI*8), Y0, Y2; VADDPD Y2, Y4, Y4; VMULPD Y0, Y0, Y3; VADDPD Y3, Y5, Y5
#define STORE2 VMOVUPD Y4, (R14); VMOVUPD Y5, 32(R14)
#define DOT1 VMULSD (DX)(SI*8), X0, X2; VMULSD X0, X0, X3; \
	VMOVSD 32(R14), X7; VADDSD X3, X7, X7; VMOVSD X7, 32(R14); LANE1(X2, R14)

// ROWS runs every row of one width, four at a time, then the scalar
// tail, and jumps to done.
#define ROWS(INIT4, SUM4, DOT4, END4, INIT1, SUM1, DOT1, loop4, tail, loop1) \
	XORQ SI, SI; \
	TESTQ CX, CX; \
	JEQ tail; \
loop4: \
	INIT4; SUM4; VMOVUPD Y0, (DI)(SI*8); DOT4; \
	ADDQ $4, SI; \
	CMPQ SI, CX; \
	JLT loop4; \
tail: \
	END4; \
	CMPQ SI, y_len+8(FP); \
	JGE done; \
loop1: \
	INIT1; SUM1; VMOVSD X0, (DI)(SI*8); DOT1; \
	INCQ SI; \
	CMPQ SI, y_len+8(FP); \
	JLT loop1; \
	JMP done

// WIDTHS dispatches on the width in SI.
#define WIDTHS(INIT4, DOT4, END4, INIT1, DOT1) \
	CMPQ SI, $2; JLT w1; JEQ w2; CMPQ SI, $3; JEQ w3; \
	ROWS(INIT4, SUM4_4, DOT4, END4, INIT1, SUM1_4, DOT1, m4, t4, s4); \
w1: ROWS(INIT4, SUM4_1, DOT4, END4, INIT1, SUM1_1, DOT1, m1, t1, s1); \
w2: ROWS(INIT4, SUM4_2, DOT4, END4, INIT1, SUM1_2, DOT1, m2, t2, s2); \
w3: ROWS(INIT4, SUM4_3, DOT4, END4, INIT1, SUM1_3, DOT1, m3, t3, s3)

// func diaWriteAVX2(y []float64, vs, xs *[diaGroup][]float64, width int)
TEXT ·diaWriteAVX2(SB), NOSPLIT, $0-48
	MOVQ vs+24(FP), SI
	MOVQ xs+32(FP), DI
	DIAGS(SI, DI)
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	ANDQ $-4, CX
	MOVQ width+40(FP), SI
	WIDTHS(ZERO4, NONE, NONE, ZERO1, NONE)
done:
	VZEROUPPER
	RET

// func diaAccumAVX2(y []float64, vs, xs *[diaGroup][]float64, width int)
TEXT ·diaAccumAVX2(SB), NOSPLIT, $0-48
	MOVQ vs+24(FP), SI
	MOVQ xs+32(FP), DI
	DIAGS(SI, DI)
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	ANDQ $-4, CX
	MOVQ width+40(FP), SI
	WIDTHS(LOAD4, NONE, NONE, LOAD1, NONE)
done:
	VZEROUPPER
	RET

// func diaAccumDotAVX2(y, w []float64, vs, xs *[diaGroup][]float64, width int, acc *[2]lanes)
TEXT ·diaAccumDotAVX2(SB), NOSPLIT, $0-80
	MOVQ vs+48(FP), SI
	MOVQ xs+56(FP), DI
	DIAGS(SI, DI)
	MOVQ y_base+0(FP), DI
	MOVQ w_base+24(FP), DX
	MOVQ y_len+8(FP), CX
	ANDQ $-4, CX
	MOVQ acc+72(FP), R14
	VMOVUPD (R14), Y4
	VMOVUPD 32(R14), Y5
	MOVQ width+64(FP), SI
	WIDTHS(LOAD4, DOT4, STORE2, LOAD1, DOT1)
done:
	VZEROUPPER
	RET

// The vector bodies: x in AX, y in DI, out in BX, the scalar (alpha or
// beta) broadcast in Y3, the element index in SI, the length in DX, the
// elements the four-wide loop covers in CX, and a reduction's lanes at
// (R8), in Y4 through the four-wide loop.
#define VLOOP(BODY4, END4, BODY1) \
	MOVQ DX, CX; \
	ANDQ $-4, CX; \
	XORQ SI, SI; \
	TESTQ CX, CX; \
	JEQ tail; \
loop4: \
	BODY4; \
	ADDQ $4, SI; \
	CMPQ SI, CX; \
	JLT loop4; \
tail: \
	END4; \
loop1: \
	CMPQ SI, DX; \
	JGE done; \
	BODY1; \
	INCQ SI; \
	JMP loop1; \
done: \
	VZEROUPPER

// VLOOP8 is VLOOP with an eight-wide loop first.
#define VLOOP8(BODY8, BODY4, END4, BODY1) \
	MOVQ DX, CX; \
	ANDQ $-8, CX; \
	XORQ SI, SI; \
	TESTQ CX, CX; \
	JEQ quad; \
loop8: \
	BODY8; \
	ADDQ $8, SI; \
	CMPQ SI, CX; \
	JLT loop8; \
quad: \
	MOVQ DX, CX; \
	ANDQ $-4, CX; \
	CMPQ SI, CX; \
	JGE tail; \
	BODY4; \
	ADDQ $4, SI; \
tail: \
	END4; \
loop1: \
	CMPQ SI, DX; \
	JGE done; \
	BODY1; \
	INCQ SI; \
	JMP loop1; \
done: \
	VZEROUPPER

// y[i] + alpha*x[i]
#define AXPY4 VMULPD (AX)(SI*8), Y3, Y1; VADDPD (DI)(SI*8), Y1, Y1; VMOVUPD Y1, (DI)(SI*8)
#define AXPY1 VMULSD (AX)(SI*8), X3, X1; VADDSD (DI)(SI*8), X1, X1; VMOVSD X1, (DI)(SI*8)
// x[i] + beta*y[i], into y or out
#define XPBY4(o) VMULPD (DI)(SI*8), Y3, Y1; VADDPD (AX)(SI*8), Y1, Y1; VMOVUPD Y1, (o)(SI*8)
#define XPBY1(o) VMULSD (DI)(SI*8), X3, X1; VADDSD (AX)(SI*8), X1, X1; VMOVSD X1, (o)(SI*8)
// and the squares of the updated y into the lanes; eight elements a
// step, the two product vectors added in row order, measured 6.9 → 5.0
// µs per 16,384 elements against four a step (BenchmarkReductionsPerPage)
#define AXPYDOT4 AXPY4; VMULPD Y1, Y1, Y2; VADDPD Y2, Y4, Y4
#define AXPYDOT8 \
	AXPY4; VMULPD 32(AX)(SI*8), Y3, Y6; VADDPD 32(DI)(SI*8), Y6, Y6; VMOVUPD Y6, 32(DI)(SI*8); \
	VMULPD Y1, Y1, Y2; VMULPD Y6, Y6, Y7; VADDPD Y2, Y4, Y4; VADDPD Y7, Y4, Y4
#define AXPYDOT1 AXPY1; VMULSD X1, X1, X2; LANE1(X2, R8)
// x[i]·y[i] into the lanes
#define DOTV4 VMOVUPD (AX)(SI*8), Y1; VMULPD (DI)(SI*8), Y1, Y1; VADDPD Y1, Y4, Y4
#define DOTV1 VMOVSD (AX)(SI*8), X1; VMULSD (DI)(SI*8), X1, X1; LANE1(X1, R8)
#define STORE1 VMOVUPD Y4, (R8)

// func axpyAVX2(alpha float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y3
	MOVQ x_base+8(FP), AX
	MOVQ x_len+16(FP), DX
	MOVQ y_base+32(FP), DI
	VLOOP(AXPY4, NONE, AXPY1)
	RET

// func axpyDotAVX2(alpha float64, x, y []float64, acc *lanes)
TEXT ·axpyDotAVX2(SB), NOSPLIT, $0-64
	VBROADCASTSD alpha+0(FP), Y3
	MOVQ x_base+8(FP), AX
	MOVQ x_len+16(FP), DX
	MOVQ y_base+32(FP), DI
	MOVQ acc+56(FP), R8
	VMOVUPD (R8), Y4
	VLOOP8(AXPYDOT8, AXPYDOT4, STORE1, AXPYDOT1)
	RET

// func dotAVX2(x, y []float64, acc *lanes)
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), AX
	MOVQ x_len+8(FP), DX
	MOVQ y_base+24(FP), DI
	MOVQ acc+48(FP), R8
	VMOVUPD (R8), Y4
	VLOOP(DOTV4, STORE1, DOTV1)
	RET

// func xpbyAVX2(x []float64, beta float64, y []float64)
TEXT ·xpbyAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), AX
	MOVQ x_len+8(FP), DX
	VBROADCASTSD beta+24(FP), Y3
	MOVQ y_base+32(FP), DI
	VLOOP(XPBY4(DI), NONE, XPBY1(DI))
	RET

// func xpbyOutAVX2(x []float64, beta float64, y, out []float64)
TEXT ·xpbyOutAVX2(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), AX
	MOVQ x_len+8(FP), DX
	VBROADCASTSD beta+24(FP), Y3
	MOVQ y_base+32(FP), DI
	MOVQ out_base+56(FP), BX
	VLOOP(XPBY4(BX), NONE, XPBY1(BX))
	RET

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
