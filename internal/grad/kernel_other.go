//go:build !amd64

package grad

func noisyGrad(out, p, t []float32, half float32, s uint64) { gradGo(out, p, t, half, s) }
