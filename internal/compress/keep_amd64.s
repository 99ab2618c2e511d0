#include "textflag.h"

// func keepAVX2(hits *[keepChunk]int32, g []float32, t uint32) int
//
// The indices into g of its first len(g)/8*8 entries whose |v| bits reach
// t, written to hits in order, eight entries a round and branch-free: each
// round clears the eight signs, compares against t − 1 (|v| bits are below
// 2³¹, so the signed compare is exact for t ≤ 2³¹), and turns the compare's
// sign mask m into keepLanes[m], the set lanes' numbers packed one per
// byte. Widened and offset by the round's first index, they are stored
// whole at the hit count, which then advances by keepCounts[m], so a round
// writes up to eight slots past its hits and never past 8·(round+1).
// Callers check cpu.AVX2 first.
TEXT ·keepAVX2(SB), NOSPLIT, $0-48
	MOVQ hits+0(FP), DI
	MOVQ g_base+8(FP), SI
	MOVQ g_len+16(FP), CX
	XORQ DX, DX
	SHRQ $3, CX
	JZ   done

	MOVL         t+32(FP), AX
	DECL         AX
	VMOVD        AX, X1
	VPBROADCASTD X1, Y1 // t − 1
	VPCMPEQD     Y0, Y0, Y0
	VPSRLD       $1, Y0, Y0 // 0x7fffffff, the sign-clearing mask
	MOVL         $8, AX
	VMOVD        AX, X4
	VPBROADCASTD X4, Y4 // a round's index step
	VPXOR        Y3, Y3, Y3 // the round's first index, in every lane
	LEAQ         ·keepLanes(SB), R8
	LEAQ         ·keepCounts(SB), R9

	// Start the loop on a 64-byte line, so that code moving ahead of this
	// function in the binary cannot move a line boundary through its body.
	PCALIGN $64

loop:
	VPAND     (SI), Y0, Y2
	VPCMPGTD  Y1, Y2, Y2
	VMOVMSKPS Y2, AX
	VPMOVZXBD (R8)(AX*8), Y5
	VPADDD    Y3, Y5, Y5
	VMOVDQU   Y5, (DI)(DX*4)
	MOVBQZX   (R9)(AX*1), BX
	ADDQ      BX, DX
	VPADDD    Y4, Y3, Y3
	ADDQ      $32, SI
	DECQ      CX
	JNZ       loop
	VZEROUPPER

done:
	MOVQ DX, ret+40(FP)
	RET
