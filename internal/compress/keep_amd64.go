package compress

import (
	"lowdiff/internal/cpu"
	"lowdiff/internal/tensor"
)

// keepLanes[m] holds, one byte each from the low end, the numbers of the
// lanes 0–7 set in the mask m, in order; keepCounts[m] is how many there
// are. keepAVX2 looks both up by a round's compare mask.
var (
	keepLanes  [256]uint64
	keepCounts [256]uint8
)

func init() {
	for m := range keepLanes {
		c := 0
		for lane := range 8 {
			if m>>lane&1 != 0 {
				keepLanes[m] |= uint64(lane) << (8 * c)
				c++
			}
		}
		keepCounts[m] = uint8(c)
	}
}

// keepAVX2 writes to hits the indices into g of its first len(g)/8*8
// entries whose |v| bits reach t, in order, and returns how many there are
// (keep_amd64.s). g must be at most keepChunk long and t at most 2³¹. Only
// call it where cpu.AVX2 holds.
//
//go:noescape
func keepAVX2(hits *[keepChunk]int32, g []float32, t uint32) int

// keep appends to kept the strength keys of g's entries whose |v| bits
// reach t, in index order (keepBlock's contract). With AVX2 the kernel
// filters len(g) rounded down to a multiple of eight, keepChunk entries a
// call, and Go packs each chunk's few hits into their keys; keepBlock takes
// the tail. Without AVX2 keepBlock takes it all, as off amd64. No |v| bits
// exceed 2³¹ − 1, so clamping t to 2³¹ changes no result.
func (s *topKScratch) keep(kept []uint64, g tensor.Vector, t uint32) []uint64 {
	n := 0
	if cpu.AVX2 {
		n = len(g) &^ 7
		tk := min(t, 1<<31)
		for lo := 0; lo < n; lo += keepChunk {
			c := keepAVX2(&s.hits, g[lo:min(lo+keepChunk, n)], tk)
			for _, i := range s.hits[:c] {
				j := lo + int(i)
				kept = append(kept, strengthKey(g[j], int32(j)))
			}
		}
	}
	return keepBlock(kept, g[n:], n, t)
}
