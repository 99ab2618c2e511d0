package grad

import (
	"lowdiff/internal/cpu"
	"lowdiff/internal/tensor"
)

// gradAVX2 is gradGo over len(out)/8*8 elements, eight at a time
// (kernel_amd64.s). p and t must be at least as long as out. Only call it
// where cpu.AVX2 holds.
//
//go:noescape
func gradAVX2(out, p, t []float32, half float32, s uint64)

// noisyGrad writes a layer's noisy gradient (gradGo's contract). With AVX2
// the packed body takes len(out) rounded down to a multiple of eight and
// gradGo the tail, from the stream position the body stopped at; both
// round every element as the two-pass loop did, so the split changes no
// bit. Without AVX2 gradGo takes it all, as off amd64.
func noisyGrad(out, p, t []float32, half float32, s uint64) {
	n := 0
	if cpu.AVX2 {
		n = len(out) &^ 7
		gradAVX2(out[:n], p[:n], t[:n], half, s)
	}
	gradGo(out[n:], p[n:], t[n:], half, s+uint64(n)*tensor.Gamma)
}
