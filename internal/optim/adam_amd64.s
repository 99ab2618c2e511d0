#include "textflag.h"

// func adamAVX(p, m, v, g []float32, k *adamCoef)
//
// The Adam rule of adamGo, eight AVX lanes at a time over len(g)/8*8
// elements, with the scalar expression's operation order and no fused
// multiply-add: every lane rounds exactly as adamGo rounds that element.
// Callers check cpu.AVX first. Y15 is left alone (the register ABI keeps zero
// in X15).
TEXT ·adamAVX(SB), NOSPLIT, $0-104
	MOVQ p_base+0(FP), DI
	MOVQ m_base+24(FP), SI
	MOVQ v_base+48(FP), DX
	MOVQ g_base+72(FP), BX
	MOVQ g_len+80(FP), CX
	MOVQ k+96(FP), AX
	SHRQ $3, CX
	JZ   done

	// adamCoef{b1, b2, c1, c2, corr1, corr2, lr, eps}, each broadcast.
	VBROADCASTSS 0(AX), Y7   // b1
	VBROADCASTSS 4(AX), Y8   // b2
	VBROADCASTSS 8(AX), Y9   // c1
	VBROADCASTSS 12(AX), Y10 // c2
	VBROADCASTSS 16(AX), Y11 // corr1
	VBROADCASTSS 20(AX), Y12 // corr2
	VBROADCASTSS 24(AX), Y13 // lr
	VBROADCASTSS 28(AX), Y14 // eps

	// Start the loop on a 64-byte line, so that code moving ahead of this
	// function in the binary cannot move a line boundary through its body.
	PCALIGN $64

loop:
	VMOVUPS (BX), Y0 // g

	// m = b1*m + c1*g. Go's three-operand order is src2, src1, dst. The sums
	// take the gradient's term as src1, as the compiled Go loop does: where
	// both terms are NaN, both kernels return the gradient term's payload.
	VMOVUPS (SI), Y2
	VMULPS  Y7, Y2, Y2
	VMULPS  Y0, Y9, Y1
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (SI)

	// v = b2*v + (c2*g)*g
	VMOVUPS (DX), Y4
	VMULPS  Y8, Y4, Y4
	VMULPS  Y0, Y10, Y3
	VMULPS  Y0, Y3, Y3
	VADDPS  Y4, Y3, Y3
	VMOVUPS Y3, (DX)

	// p -= lr*(m*corr1) / (sqrt(v*corr2) + eps)
	VMULPS  Y11, Y1, Y1
	VMULPS  Y1, Y13, Y5
	VMULPS  Y12, Y3, Y3
	VSQRTPS Y3, Y6
	VADDPS  Y14, Y6, Y6
	VDIVPS  Y6, Y5, Y5
	VMOVUPS (DI), Y0
	VSUBPS  Y5, Y0, Y0
	VMOVUPS Y0, (DI)

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	DECQ CX
	JNZ  loop
	VZEROUPPER

done:
	RET
