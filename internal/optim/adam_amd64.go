package optim

import "lowdiff/internal/cpu"

// adamAVX is adamGo over len(g)/8*8 elements, eight AVX lanes at a time
// (adam_amd64.s). p, m and v must be at least as long as g. Only call it
// where cpu.AVX holds.
//
//go:noescape
func adamAVX(p, m, v, g []float32, k *adamCoef)

// adamRange is the Adam rule over one range, the one entry point of every
// Adam step: dense and sparse, serial, sharded or tiled, live or replayed.
// With AVX the packed body takes len(g) rounded down to a multiple of eight
// and adamGo the tail; both round every element as adamGo alone would, so
// the split point changes no bit. Without AVX adamGo takes it all, as off
// amd64. The four slices cover the same range.
func adamRange(p, m, v, g []float32, k adamCoef) {
	n := 0
	if cpu.AVX {
		n = len(g) &^ 7
		adamAVX(p[:n], m[:n], v[:n], g[:n], &k)
	}
	adamGo(p[n:], m[n:], v[n:], g[n:], k)
}
