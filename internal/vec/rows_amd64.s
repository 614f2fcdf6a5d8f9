#include "textflag.h"

// func squaredL2Rows4(q, rows, out []float32)
//
// Four rows per block, one accumulator per row: lane j of X1..X4 sums the
// squared differences of dims j, j+4, … in order, exactly SquaredL2's
// d0..d3. The first 4 dims initialise the accumulators (0 + t*t is t*t), a
// 4x4 transpose turns the four accumulators into lane columns, and
// ((col0+col1)+col2)+col3 leaves the four row results in one register.
// Every step is a separately rounded SSE2 SUBPS/MULPS/ADDPS: no fused
// multiply-add, so the bits equal the scalar Go kernel's.
TEXT ·squaredL2Rows4(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), DX
	MOVQ rows_base+24(FP), DI
	MOVQ out_base+48(FP), BX
	MOVQ out_len+56(FP), CX
	MOVQ DX, R12
	ANDQ $-4, R12            // R12 = bytes of the 4-aligned prefix
	SHLQ $2, R12
	SHLQ $2, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	MOVQ DX, R13
	SHLQ $2, R13             // R13 = block stride in bytes
	SHRQ $2, CX              // CX = blocks of four rows
	JZ   done

block:
	MOVUPS (SI), X0
	MOVUPS (DI), X5
	MOVAPS X0, X1
	SUBPS  X5, X1
	MULPS  X1, X1
	MOVUPS (R9), X6
	MOVAPS X0, X2
	SUBPS  X6, X2
	MULPS  X2, X2
	MOVUPS (R10), X7
	MOVAPS X0, X3
	SUBPS  X7, X3
	MULPS  X3, X3
	MOVUPS (R11), X8
	MOVAPS X0, X4
	SUBPS  X8, X4
	MULPS  X4, X4
	MOVQ   $16, AX
	CMPQ   AX, R12
	JGE    fold

dims:
	MOVUPS (SI)(AX*1), X0
	MOVUPS (DI)(AX*1), X5
	MOVAPS X0, X9
	SUBPS  X5, X9
	MULPS  X9, X9
	ADDPS  X9, X1
	MOVUPS (R9)(AX*1), X6
	MOVAPS X0, X10
	SUBPS  X6, X10
	MULPS  X10, X10
	ADDPS  X10, X2
	MOVUPS (R10)(AX*1), X7
	MOVAPS X0, X11
	SUBPS  X7, X11
	MULPS  X11, X11
	ADDPS  X11, X3
	MOVUPS (R11)(AX*1), X8
	MOVAPS X0, X12
	SUBPS  X8, X12
	MULPS  X12, X12
	ADDPS  X12, X4
	ADDQ   $16, AX
	CMPQ   AX, R12
	JLT    dims

fold:
	// Rows a..d in X1..X4; transpose to columns of lane j.
	MOVAPS   X1, X5
	UNPCKLPS X2, X5          // X5 = a0 b0 a1 b1
	UNPCKHPS X2, X1          // X1 = a2 b2 a3 b3
	MOVAPS   X3, X6
	UNPCKLPS X4, X6          // X6 = c0 d0 c1 d1
	UNPCKHPS X4, X3          // X3 = c2 d2 c3 d3
	MOVAPS   X5, X7
	MOVLHPS  X6, X7          // X7 = a0 b0 c0 d0
	MOVHLPS  X5, X6          // X6 = a1 b1 c1 d1
	MOVAPS   X1, X8
	MOVLHPS  X3, X8          // X8 = a2 b2 c2 d2
	MOVHLPS  X1, X3          // X3 = a3 b3 c3 d3
	ADDPS    X6, X7
	ADDPS    X8, X7
	ADDPS    X3, X7
	MOVUPS   X7, (BX)
	ADDQ     $16, BX
	ADDQ     R13, DI
	ADDQ     R13, R9
	ADDQ     R13, R10
	ADDQ     R13, R11
	DECQ     CX
	JNZ      block

done:
	RET
