//go:build !amd64

package cpu

func probe() (avx, avx2 bool) { return false, false }
