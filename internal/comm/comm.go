// Package comm provides in-process collective communication for the
// functional training layer: N ranks (goroutines) synchronize gradients
// with all-reduce / all-gather primitives operating on real data.
//
// This substitutes for NCCL in the paper's testbed. Two all-reduce
// implementations are provided: a centralized deterministic sum (reference)
// and a bandwidth-optimal ring all-reduce (reduce-scatter + all-gather, the
// algorithm real training systems use). Both guarantee that every rank
// observes a bit-identical result, the property gradient-reuse
// checkpointing depends on (every worker persists the same differential).
package comm

import (
	"fmt"
	"sync"

	"lowdiff/internal/compress"
	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
)

// Group is a communicator over n ranks. All collective calls must be made
// by every rank (one goroutine per rank); calls rendezvous like MPI
// collectives. A Group is reusable across any number of sequential
// collectives but a single collective must not be issued twice
// concurrently by the same rank.
type Group struct {
	n    int
	pool *parallel.Pool
	mu   sync.Mutex
	cond *sync.Cond

	slots   []interface{}
	out     []interface{}
	arrived int
	gen     uint64

	// ring links: ring[i] carries messages from rank i to rank (i+1)%n.
	ring []chan tensor.Vector
}

// NewGroup returns a communicator for n ranks. n must be positive.
func NewGroup(n int) (*Group, error) {
	return NewGroupPooled(n, nil)
}

// NewGroupPooled returns a communicator whose dense reductions (segment
// scatter-add, sparse union, post-merge scaling) are sharded over pool.
// Results stay bit-identical to the serial group: within every segment,
// ranks accumulate in rank order.
func NewGroupPooled(n int, pool *parallel.Pool) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: group size %d must be positive", n)
	}
	g := &Group{n: n, pool: pool, slots: make([]interface{}, n), ring: make([]chan tensor.Vector, n)}
	g.cond = sync.NewCond(&g.mu)
	for i := range g.ring {
		g.ring[i] = make(chan tensor.Vector, 1)
	}
	return g, nil
}

// Size returns the number of ranks.
func (g *Group) Size() int { return g.n }

// exchange is the rendezvous primitive: every rank deposits in and receives
// the slice of all ranks' deposits (indexed by rank). All ranks return
// together.
func (g *Group) exchange(rank int, in interface{}) []interface{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	gen := g.gen
	g.slots[rank] = in
	g.arrived++
	if g.arrived == g.n {
		g.arrived = 0
		g.out = append([]interface{}(nil), g.slots...)
		g.gen++
		g.cond.Broadcast()
	} else {
		for gen == g.gen {
			g.cond.Wait()
		}
	}
	return g.out
}

// checkRank validates a rank argument.
func (g *Group) checkRank(rank int) error {
	if rank < 0 || rank >= g.n {
		return fmt.Errorf("comm: rank %d out of range [0,%d)", rank, g.n)
	}
	return nil
}

// Barrier blocks until all ranks have entered it.
func (g *Group) Barrier(rank int) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	g.exchange(rank, nil)
	return nil
}

// AllReduceSum replaces v on every rank with the elementwise sum of all
// ranks' v, accumulated in rank order so every rank computes a bit-identical
// result. Vectors must have equal length on all ranks.
func (g *Group) AllReduceSum(rank int, v tensor.Vector) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	all := g.exchange(rank, v)
	first := all[0].(tensor.Vector)
	for r := 1; r < g.n; r++ {
		if len(all[r].(tensor.Vector)) != len(first) {
			return fmt.Errorf("comm: allreduce length mismatch: rank %d has %d, rank 0 has %d",
				r, len(all[r].(tensor.Vector)), len(first))
		}
	}
	// Segment scatter-add: each shard owns [lo, hi) of the sum and adds the
	// ranks' segments in rank order, so the result is bit-identical to the
	// serial rank-order accumulation at any worker count.
	sum := tensor.New(len(first))
	vecs := make([]tensor.Vector, g.n)
	for r := 0; r < g.n; r++ {
		vecs[r] = all[r].(tensor.Vector)
	}
	g.pool.ForEach(len(first), func(_, lo, hi int) {
		for _, src := range vecs { // rank order
			for i := lo; i < hi; i++ {
				sum[i] += src[i]
			}
		}
	})
	// Every rank writes its own v only after computing the sum from the
	// snapshot; a barrier keeps writers from racing readers of the inputs.
	g.exchange(rank, nil)
	copy(v, sum)
	g.exchange(rank, nil)
	return nil
}

// RingAllReduceSum performs the bandwidth-optimal ring all-reduce in place:
// a reduce-scatter phase (n-1 steps) followed by an all-gather phase
// (n-1 steps), each rank exchanging one chunk with its ring neighbours per
// step. Every rank finishes with a bit-identical sum.
func (g *Group) RingAllReduceSum(rank int, v tensor.Vector) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	if g.n == 1 {
		return nil
	}
	// Length agreement check (cheap rendezvous).
	all := g.exchange(rank, len(v))
	want := all[0].(int)
	for r, l := range all {
		if l.(int) != want {
			return fmt.Errorf("comm: ring allreduce length mismatch: rank %d has %d, rank 0 has %d", r, l, want)
		}
	}
	n := g.n
	chunks, err := v.Chunks(n)
	if err != nil {
		return err
	}
	next := g.ring[rank]         // we send here
	prev := g.ring[(rank+n-1)%n] // we receive here
	// Reduce-scatter: after step s, rank r holds the running sum of chunk
	// (r-s-1+n) mod n over s+2 contributors; after n-1 steps rank r owns
	// the fully reduced chunk (r+1) mod n.
	for s := 0; s < n-1; s++ {
		sendIdx := (rank - s + n) % n
		recvIdx := (rank - s - 1 + 2*n) % n
		out := chunks[sendIdx].Clone() // transmit a copy, like a real NIC
		next <- out
		in := <-prev
		if err := chunks[recvIdx].Add(in); err != nil {
			return err
		}
	}
	// All-gather: circulate the reduced chunks around the ring.
	for s := 0; s < n-1; s++ {
		sendIdx := (rank + 1 - s + 2*n) % n
		recvIdx := (rank - s + 2*n) % n
		out := chunks[sendIdx].Clone()
		next <- out
		in := <-prev
		copy(chunks[recvIdx], in)
	}
	return nil
}

// AllGatherSparse gathers every rank's compressed gradient and returns the
// rank-order union-sum on every rank — the synchronization used with Top-K
// sparsification (the paper's Allgather path). The result is bit-identical
// on every rank and does not alias any input.
func (g *Group) AllGatherSparse(rank int, c *compress.Compressed) (*compress.Compressed, error) {
	if err := g.checkRank(rank); err != nil {
		return nil, err
	}
	all := g.exchange(rank, c)
	parts := make([]*compress.Compressed, g.n)
	for r := 0; r < g.n; r++ {
		p, ok := all[r].(*compress.Compressed)
		if !ok || p == nil {
			return nil, fmt.Errorf("comm: rank %d deposited no compressed gradient", r)
		}
		parts[r] = p
	}
	merged, err := compress.MergeWith(g.pool, parts...)
	if err != nil {
		return nil, err
	}
	// Average the sum so the synchronized gradient is the mean of worker
	// gradients, matching the data-parallel convention.
	inv := 1 / float32(g.n)
	vals := merged.Vals
	g.pool.ForEach(len(vals), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] *= inv
		}
	})
	g.exchange(rank, nil) // release inputs only after all ranks merged
	return merged, nil
}
