//go:build !amd64

package compress

import "lowdiff/internal/tensor"

func (s *topKScratch) keep(kept []uint64, g tensor.Vector, t uint32) []uint64 {
	return keepBlock(kept, g, 0, t)
}
