//go:build !amd64

package optim

func adamRange(p, m, v, g []float32, k adamCoef) { adamGo(p, m, v, g, k) }
