#include "textflag.h"

// func adamPacked(p, m, v, g []float32, k *adamCoef)
//
// The Adam rule of adamGo, four lanes at a time over len(g)/4*4 elements,
// with the scalar expression's operation order: every lane rounds exactly as
// adamGo rounds that element. SSE2 is the amd64 baseline, so there is no
// feature check. X15 is left alone (the register ABI keeps zero in it).
TEXT ·adamPacked(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ m_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ g_base+72(FP), BX
	MOVQ g_len+80(FP), CX
	MOVQ k+96(FP), AX
	SHRQ $2, CX
	JZ   done

	// adamCoef{b1, b2, c1, c2, corr1, corr2, lr, eps}, each broadcast.
	MOVSS  0(AX), X7
	SHUFPS $0, X7, X7 // b1
	MOVSS  4(AX), X8
	SHUFPS $0, X8, X8 // b2
	MOVSS  8(AX), X9
	SHUFPS $0, X9, X9 // c1
	MOVSS  12(AX), X10
	SHUFPS $0, X10, X10 // c2
	MOVSS  16(AX), X11
	SHUFPS $0, X11, X11 // corr1
	MOVSS  20(AX), X12
	SHUFPS $0, X12, X12 // corr2
	MOVSS  24(AX), X13
	SHUFPS $0, X13, X13 // lr
	MOVSS  28(AX), X14
	SHUFPS $0, X14, X14 // eps

loop:
	MOVUPS (BX), X0 // g

	// m = b1*m + c1*g. The sums take the gradient's term as their first
	// operand, as the compiled Go loop does: where both terms are NaN, both
	// kernels return the gradient term's payload.
	MOVUPS (SI), X2
	MULPS  X7, X2
	MOVAPS X9, X1
	MULPS  X0, X1
	ADDPS  X2, X1
	MOVUPS X1, (SI)

	// v = b2*v + (c2*g)*g
	MOVUPS (DX), X4
	MULPS  X8, X4
	MOVAPS X10, X3
	MULPS  X0, X3
	MULPS  X0, X3
	ADDPS  X4, X3
	MOVUPS X3, (DX)

	// p -= lr*(m*corr1) / (sqrt(v*corr2) + eps)
	MULPS  X11, X1
	MOVAPS X13, X5
	MULPS  X1, X5
	MULPS  X12, X3
	SQRTPS X3, X6
	ADDPS  X14, X6
	DIVPS  X6, X5
	MOVUPS (DI), X0
	SUBPS  X5, X0
	MOVUPS X0, (DI)

	ADDQ $16, DI
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $16, BX
	DECQ CX
	JNZ  loop

done:
	RET
