package compress

import "sync"

// Scratch pools for the per-iteration slices the hot path would otherwise
// allocate on every call: wire byte staging (a decoded header, a big-endian
// host's writes), Top-K's sample and candidate keys, the merge's fold
// intermediates, and the per-shard error slots of recovery's scatter-add.
//
// Ownership rule (see DESIGN.md §8): a pooled buffer never escapes the call
// that got it. Anything stored in a Compressed — which may be handed to the
// reusing queue, the batched writer, or a checkpoint — is freshly
// allocated; scratch is released before the function returns.

type byteScratch struct{ b []byte }

var bytePool = sync.Pool{New: func() any { return new(byteScratch) }}

// getBytes returns a pooled byte slice of length n.
func getBytes(n int) *byteScratch {
	s := bytePool.Get().(*byteScratch)
	if cap(s.b) < n {
		s.b = make([]byte, n)
	}
	s.b = s.b[:n]
	return s
}

func (s *byteScratch) release() { bytePool.Put(s) }

type i32Scratch struct{ v []int32 }

var i32Pool = sync.Pool{New: func() any { return new(i32Scratch) }}

// getI32 returns a pooled int32 slice of length n.
func getI32(n int) *i32Scratch {
	s := i32Pool.Get().(*i32Scratch)
	if cap(s.v) < n {
		s.v = make([]int32, n)
	}
	s.v = s.v[:n]
	return s
}

func (s *i32Scratch) release() { i32Pool.Put(s) }

// topKScratch is Top-K's working set, pooled whole so a selection
// allocates nothing beyond its output: the threshold's sample, the filter
// kernel's in-chunk hit indices, the kept candidate keys in index order,
// and the copy quickselect permutes.
type topKScratch struct {
	sample    [sampleSize]uint64
	hits      [keepChunk]int32
	kept, sel []uint64
}

var topKPool = sync.Pool{New: func() any { return new(topKScratch) }}

type f32Scratch struct{ v []float32 }

var f32Pool = sync.Pool{New: func() any { return new(f32Scratch) }}

// getF32 returns a pooled float32 slice of length n. Contents are stale;
// callers must write every slot they read.
func getF32(n int) *f32Scratch {
	s := f32Pool.Get().(*f32Scratch)
	if cap(s.v) < n {
		s.v = make([]float32, n)
	}
	s.v = s.v[:n]
	return s
}

func (s *f32Scratch) release() { f32Pool.Put(s) }
