// Package parallel provides the bounded worker pool behind the repo's
// deterministic data plane: dense hot loops (compression, sparse merge,
// scatter-add, checkpoint encode/decode, segment sums) are sharded over a
// fixed chunk grid and recombined in a fixed order, so float32 results are
// bit-identical to the serial reference at any worker count and any
// GOMAXPROCS.
//
// Determinism contract (enforced by construction, verified by the
// serial-vs-parallel property tests in the consumer packages):
//
//   - Chunk boundaries depend only on the problem size n and the pool's
//     chunk size — never on the worker count or on runtime scheduling.
//   - A shard function owns its [lo, hi) range exclusively: it may write
//     only to that range of shared output, or to its own shard-indexed
//     slot.
//   - Cross-shard combination is the caller's job and must walk shards in
//     ascending shard order. Floating-point reductions that would change
//     with chunking (e.g. a running sum across the whole vector) must not
//     be sharded; per-element reductions whose inner order is fixed (sum
//     across ranks in rank order, max) are safe.
//
// A nil *Pool is valid everywhere and means "run serially, inline" — call
// sites need no conditionals. Pools are concurrency-safe: independent
// ForEach calls may run at once, each bounded by the pool's worker count.
package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lowdiff/internal/obs"
)

// DefaultChunk is the default shard width in elements. It is part of the
// determinism story only in that it is fixed: results are bit-identical at
// any chunk size by construction, but a stable grid keeps shard accounting
// comparable across runs.
const DefaultChunk = 1 << 14

// Pool is a bounded worker pool. The zero value and nil are both valid and
// execute everything inline (serial).
type Pool struct {
	workers int
	chunk   int

	// Dispatches counts ForEach calls that fanned out to goroutines,
	// Inline those that ran on the caller's goroutine (single chunk or a
	// one-worker pool), and Shards every chunk executed either way. The
	// counters feed the obs registry as parallel.* series.
	Dispatches obs.Counter
	Inline     obs.Counter
	Shards     obs.Counter
}

// New returns a pool of the given worker count with the default chunk size.
// workers must be at least 1; a one-worker pool runs everything inline.
func New(workers int) (*Pool, error) {
	return NewWithChunk(workers, DefaultChunk)
}

// NewWithChunk returns a pool with an explicit chunk size (elements per
// shard). Results are bit-identical at any chunk size; the knob exists for
// benchmarks and tests.
func NewWithChunk(workers, chunk int) (*Pool, error) {
	if workers < 1 {
		return nil, fmt.Errorf("parallel: worker count %d must be >= 1", workers)
	}
	if chunk < 1 {
		return nil, fmt.Errorf("parallel: chunk size %d must be >= 1", chunk)
	}
	return &Pool{workers: workers, chunk: chunk}, nil
}

// Workers returns the pool's worker bound; a nil pool reports 1.
func (p *Pool) Workers() int {
	if p == nil || p.workers < 1 {
		return 1
	}
	return p.workers
}

// ChunkSize returns the pool's shard width; a nil pool reports DefaultChunk.
func (p *Pool) ChunkSize() int {
	if p == nil || p.chunk < 1 {
		return DefaultChunk
	}
	return p.chunk
}

// NumChunks returns the number of shards ForEach will use for a problem of
// size n: ceil(n/chunk), and 0 for n <= 0.
func (p *Pool) NumChunks(n int) int {
	if n <= 0 {
		return 0
	}
	c := p.ChunkSize()
	return (n + c - 1) / c
}

// Bounds returns shard i's half-open range [lo, hi) for a problem of size
// n. Boundaries depend only on n and the chunk size.
func (p *Pool) Bounds(i, n int) (lo, hi int) {
	c := p.ChunkSize()
	lo = i * c
	hi = lo + c
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ForEach partitions [0, n) into the fixed chunk grid and invokes
// fn(shard, lo, hi) once per chunk, using up to Workers goroutines. fn must
// confine its writes to its own range or shard slot; ForEach returns after
// every shard completed. Chunks are executed in ascending order per worker
// via a shared cursor, but callers must not rely on cross-shard ordering —
// only on the grid itself.
func (p *Pool) ForEach(n int, fn func(shard, lo, hi int)) {
	chunks := p.NumChunks(n)
	if chunks == 0 {
		return
	}
	if p == nil {
		for i := 0; i < chunks; i++ {
			lo, hi := p.Bounds(i, n)
			fn(i, lo, hi)
		}
		return
	}
	p.Shards.Add(int64(chunks))
	workers := p.Workers()
	if workers > chunks {
		workers = chunks
	}
	if workers == 1 {
		p.Inline.Inc()
		for i := 0; i < chunks; i++ {
			lo, hi := p.Bounds(i, n)
			fn(i, lo, hi)
		}
		return
	}
	p.Dispatches.Inc()
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= chunks {
					return
				}
				lo, hi := p.Bounds(i, n)
				fn(i, lo, hi)
			}
		}()
	}
	wg.Wait()
}
