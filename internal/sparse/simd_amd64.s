//go:build !race

#include "textflag.h"

// AVX2 bodies of the DIA group kernels and of CG's vector kernels
// (DESIGN §5). Each computes what its Go loop computes, operation for
// operation: four rows (or elements) per YMM register, one per lane, with
// every product a VMULPD and every sum a VADDPD, never a fused
// multiply-add, so each lane runs its row's Go chain of additions in the
// Go order; the len mod 4 rows left over run the same chain in scalar
// form. A row sum written fresh starts from +0.0 (VXORPD), not from its
// first product. A reduction keeps one scalar accumulator, fed lane by
// lane in ascending row order. Every body ends with VZEROUPPER: the Go
// code after it uses SSE.

// The DIA bodies: y in DI, w in DX, the row index k in SI, and in CX the
// rows the four-row loop covers; diagonal j's values in R8–R11 and its
// x window in AX, BX, R12, R13.
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

// LANES adds the four lanes of Y (X its low half) to the scalar acc, in
// ascending lane order.
#define LANES(Y, X, acc) \
	VADDSD X, acc, acc; VPERMILPD $1, X, X6; VADDSD X6, acc, acc; \
	VEXTRACTF128 $1, Y, X; \
	VADDSD X, acc, acc; VPERMILPD $1, X, X6; VADDSD X6, acc, acc

// The partials of the finished rows, wy in X4 and yy in X5. w is loaded
// after y is stored: w may alias y.
#define NODOT
#define DOT4 VMULPD (DX)(SI*8), Y0, Y2; VMULPD Y0, Y0, Y3; LANES(Y2, X2, X4); LANES(Y3, X3, X5)
#define DOT1 VMULSD (DX)(SI*8), X0, X2; VMULSD X0, X0, X3; VADDSD X2, X4, X4; VADDSD X3, X5, X5

// ROWS runs every row of one width, four at a time, then the scalar
// tail, and jumps to done.
#define ROWS(INIT4, SUM4, DOT4, INIT1, SUM1, DOT1, loop4, tail, loop1) \
	XORQ SI, SI; \
	TESTQ CX, CX; \
	JEQ tail; \
loop4: \
	INIT4; SUM4; VMOVUPD Y0, (DI)(SI*8); DOT4; \
	ADDQ $4, SI; \
	CMPQ SI, CX; \
	JLT loop4; \
tail: \
	CMPQ SI, y_len+8(FP); \
	JGE done; \
loop1: \
	INIT1; SUM1; VMOVSD X0, (DI)(SI*8); DOT1; \
	INCQ SI; \
	CMPQ SI, y_len+8(FP); \
	JLT loop1; \
	JMP done

// WIDTHS dispatches on the width in SI.
#define WIDTHS(INIT4, DOT4, INIT1, DOT1) \
	CMPQ SI, $2; JLT w1; JEQ w2; CMPQ SI, $3; JEQ w3; \
	ROWS(INIT4, SUM4_4, DOT4, INIT1, SUM1_4, DOT1, m4, t4, s4); \
w1: ROWS(INIT4, SUM4_1, DOT4, INIT1, SUM1_1, DOT1, m1, t1, s1); \
w2: ROWS(INIT4, SUM4_2, DOT4, INIT1, SUM1_2, DOT1, m2, t2, s2); \
w3: ROWS(INIT4, SUM4_3, DOT4, INIT1, SUM1_3, DOT1, m3, t3, s3)

// func diaWriteAVX2(y []float64, vs, xs *[diaGroup][]float64, width int)
TEXT ·diaWriteAVX2(SB), NOSPLIT, $0-48
	MOVQ vs+24(FP), SI
	MOVQ xs+32(FP), DI
	DIAGS(SI, DI)
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	ANDQ $-4, CX
	MOVQ width+40(FP), SI
	WIDTHS(ZERO4, NODOT, ZERO1, NODOT)
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
	WIDTHS(LOAD4, NODOT, LOAD1, NODOT)
done:
	VZEROUPPER
	RET

// func diaAccumDotAVX2(y, w []float64, vs, xs *[diaGroup][]float64, width int, wy, yy float64) (float64, float64)
TEXT ·diaAccumDotAVX2(SB), NOSPLIT, $0-104
	MOVQ vs+48(FP), SI
	MOVQ xs+56(FP), DI
	DIAGS(SI, DI)
	MOVQ y_base+0(FP), DI
	MOVQ w_base+24(FP), DX
	MOVQ y_len+8(FP), CX
	ANDQ $-4, CX
	VMOVSD wy+72(FP), X4
	VMOVSD yy+80(FP), X5
	MOVQ width+64(FP), SI
	WIDTHS(LOAD4, DOT4, LOAD1, DOT1)
done:
	VMOVSD X4, ret+88(FP)
	VMOVSD X5, ret1+96(FP)
	VZEROUPPER
	RET

// The vector bodies: x in AX, y in DI, out in BX, the scalar (alpha or
// beta) broadcast in Y3, the element index in SI, the length in DX and
// the elements the four-wide loop covers in CX.
#define VLOOP(BODY4, BODY1) \
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
	CMPQ SI, DX; \
	JGE done; \
	BODY1; \
	INCQ SI; \
	JMP tail; \
done: \
	VZEROUPPER

// y[i] + alpha*x[i]
#define AXPY4 VMULPD (AX)(SI*8), Y3, Y1; VADDPD (DI)(SI*8), Y1, Y1; VMOVUPD Y1, (DI)(SI*8)
#define AXPY1 VMULSD (AX)(SI*8), X3, X1; VADDSD (DI)(SI*8), X1, X1; VMOVSD X1, (DI)(SI*8)
// x[i] + beta*y[i], into y or out
#define XPBY4(o) VMULPD (DI)(SI*8), Y3, Y1; VADDPD (AX)(SI*8), Y1, Y1; VMOVUPD Y1, (o)(SI*8)
#define XPBY1(o) VMULSD (DI)(SI*8), X3, X1; VADDSD (AX)(SI*8), X1, X1; VMOVSD X1, (o)(SI*8)
// and the squares of the updated y into X4
#define AXPYDOT4 AXPY4; VMULPD Y1, Y1, Y2; LANES(Y2, X2, X4)
#define AXPYDOT1 AXPY1; VMULSD X1, X1, X2; VADDSD X2, X4, X4

// func axpyAVX2(alpha float64, x, y []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y3
	MOVQ x_base+8(FP), AX
	MOVQ x_len+16(FP), DX
	MOVQ y_base+32(FP), DI
	VLOOP(AXPY4, AXPY1)
	RET

// func axpyDotAVX2(alpha float64, x, y []float64) float64
TEXT ·axpyDotAVX2(SB), NOSPLIT, $0-64
	VBROADCASTSD alpha+0(FP), Y3
	MOVQ x_base+8(FP), AX
	MOVQ x_len+16(FP), DX
	MOVQ y_base+32(FP), DI
	VXORPD X4, X4, X4
	VLOOP(AXPYDOT4, AXPYDOT1)
	VMOVSD X4, ret+56(FP)
	RET

// func xpbyAVX2(x []float64, beta float64, y []float64)
TEXT ·xpbyAVX2(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), AX
	MOVQ x_len+8(FP), DX
	VBROADCASTSD beta+24(FP), Y3
	MOVQ y_base+32(FP), DI
	VLOOP(XPBY4(DI), XPBY1(DI))
	RET

// func xpbyOutAVX2(x []float64, beta float64, y, out []float64)
TEXT ·xpbyOutAVX2(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), AX
	MOVQ x_len+8(FP), DX
	VBROADCASTSD beta+24(FP), Y3
	MOVQ y_base+32(FP), DI
	MOVQ out_base+56(FP), BX
	VLOOP(XPBY4(BX), XPBY1(BX))
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
