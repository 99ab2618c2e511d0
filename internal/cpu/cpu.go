// Package cpu reports, once per process, which x86 vector extensions the
// packed kernels may use: optim's eight-lane Adam body needs AVX; grad's
// noisy-gradient body and compress's Top-K candidate filter need AVX2.
// Each kernel package keeps its Go loop as the fallback and as its tests'
// oracle; off amd64 both flags are false.
package cpu

// AVX reports whether the CPU has AVX and the OS saves the YMM state.
// AVX2 reports that and the CPU's AVX2 integer instructions.
var AVX, AVX2 = probe()
