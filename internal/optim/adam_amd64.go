package optim

// adamPacked is adamGo over len(g)/4*4 elements, four SSE lanes at a time
// (adam_amd64.s). p, m and v must be at least as long as g.
//
//go:noescape
func adamPacked(p, m, v, g []float32, k *adamCoef)

// adamRange is the Adam rule over one range, the one entry point of every
// Adam step: dense and sparse, serial, sharded or tiled, live or replayed. The
// packed body takes len(g) rounded down to a multiple of four and adamGo the
// tail; both round every element as adamGo alone would, so the split point
// changes no bit. The four slices cover the same range.
func adamRange(p, m, v, g []float32, k adamCoef) {
	n := len(g) &^ 3
	adamPacked(p[:n], m[:n], v[:n], g[:n], &k)
	adamGo(p[n:], m[n:], v[n:], g[n:], k)
}
