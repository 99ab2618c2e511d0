#include "textflag.h"

// Lane starts of the SplitMix64 counter, as multiples of its increment
// (tensor.Gamma) mod 2^64: odd lanes take elements 0, 2, 4, 6 of a round
// and even lanes elements 1, 3, 5, 7, so their top 24 bits interleave into
// element order without a permute. Every lane advances by 8·Gamma a round.
DATA oddLanes<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA oddLanes<>+8(SB)/8, $0xdaa66d2c7ddf743f
DATA oddLanes<>+16(SB)/8, $0x1715609f7c746c69
DATA oddLanes<>+24(SB)/8, $0x538454127b096493
GLOBL oddLanes<>(SB), RODATA|NOPTR, $32

DATA evenLanes<>+0(SB)/8, $0x3c6ef372fe94f82a
DATA evenLanes<>+8(SB)/8, $0x78dde6e5fd29f054
DATA evenLanes<>+16(SB)/8, $0xb54cda58fbbee87e
DATA evenLanes<>+24(SB)/8, $0xf1bbcdcbfa53e0a8
GLOBL evenLanes<>(SB), RODATA|NOPTR, $32

// The round's counter step (8·Gamma), SplitMix64's two multipliers, 2^-24
// and 1.0.
DATA consts<>+0(SB)/8, $0xf1bbcdcbfa53e0a8
DATA consts<>+8(SB)/8, $0xbf58476d1ce4e5b9
DATA consts<>+16(SB)/8, $0x94d049bb133111eb
DATA consts<>+24(SB)/4, $0x33800000
DATA consts<>+28(SB)/4, $0x3f800000
GLOBL consts<>(SB), RODATA|NOPTR, $32

// MUL64 sets Z to Z·M mod 2^64 in each 64-bit lane, from three 32×32→64
// products: lo(Z)·lo(M) + (hi(Z)·lo(M) + lo(Z)·hi(M)) << 32. MH holds
// hi(M) in each lane's low half; T1 and T2 are scratch.
#define MUL64(Z, M, MH, T1, T2) \
	VPMULUDQ M, Z, T1  \
	VPMULUDQ MH, Z, T2 \
	VPSRLQ   $32, Z, Z \
	VPMULUDQ M, Z, Z   \
	VPADDQ   T2, Z, Z  \
	VPSLLQ   $32, Z, Z \
	VPADDQ   T1, Z, Z

// MIX sets Z to SplitMix64's finalizer of Z (tensor.Mix64) shifted right
// by 40, the 24 bits tensor.Unit32 keeps. The finalizer's last step,
// z ^ z>>31, leaves those bits as they are, so it is not computed.
#define MIX(Z, T1, T2) \
	VPSRLQ $30, Z, T1         \
	VPXOR  T1, Z, Z           \
	MUL64(Z, Y3, Y4, T1, T2)  \
	VPSRLQ $27, Z, T1         \
	VPXOR  T1, Z, Z           \
	MUL64(Z, Y5, Y6, T1, T2)  \
	VPSRLQ $40, Z, Z

// func gradAVX2(out, p, t []float32, half float32, s uint64)
//
// gradGo's rule over len(out)/8*8 elements, eight lanes at a time: the
// counter and the finalizer in four 64-bit lanes per register, the float
// side in eight 32-bit lanes. Each lane rounds as gradGo's element does and
// as the two-pass loop did, with no fused multiply-add, and takes the draw
// as VEX src1 of the final sum, as the two-pass loop's sum did. Callers
// check cpu.AVX2 first. Y15 is left alone (the register ABI keeps zero in
// X15).
TEXT ·gradAVX2(SB), NOSPLIT, $0-88
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ p_base+24(FP), SI
	MOVQ t_base+48(FP), DX
	SHRQ $3, CX
	JZ   done

	VPBROADCASTQ s+80(FP), Y0
	VPADDQ       evenLanes<>(SB), Y0, Y1
	VPADDQ       oddLanes<>(SB), Y0, Y0
	VPBROADCASTQ consts<>+0(SB), Y2  // 8·Gamma
	VPBROADCASTQ consts<>+8(SB), Y3  // first multiplier
	VPSRLQ       $32, Y3, Y4
	VPBROADCASTQ consts<>+16(SB), Y5 // second multiplier
	VPSRLQ       $32, Y5, Y6
	VBROADCASTSS consts<>+24(SB), Y7 // 2^-24
	VBROADCASTSS consts<>+28(SB), Y8 // 1
	VBROADCASTSS half+72(FP), Y13

	// Start the loop on a 64-byte line, so that code moving ahead of this
	// function in the binary cannot move a line boundary through its body.
	PCALIGN $64

loop:
	VMOVDQU Y0, Y9
	MIX(Y9, Y10, Y11)
	VMOVDQU Y1, Y12
	MIX(Y12, Y10, Y11)
	VPSLLQ  $32, Y12, Y12
	VPOR    Y12, Y9, Y9   // the eight draws' 24 bits, in element order

	// n = half*(2u - 1), u = bits * 2^-24
	VCVTDQ2PS Y9, Y9
	VMULPS    Y7, Y9, Y9
	VADDPS    Y9, Y9, Y9
	VSUBPS    Y8, Y9, Y9
	VMULPS    Y13, Y9, Y9

	// out = n + 2(p - t)
	VMOVUPS (SI), Y10
	VSUBPS  (DX), Y10, Y10
	VADDPS  Y10, Y10, Y10
	VADDPS  Y10, Y9, Y9
	VMOVUPS Y9, (DI)

	VPADDQ Y2, Y0, Y0
	VPADDQ Y2, Y1, Y1
	ADDQ   $32, DI
	ADDQ   $32, SI
	ADDQ   $32, DX
	DECQ   CX
	JNZ    loop
	VZEROUPPER

done:
	RET
