// Package comm provides in-process collective communication for the
// functional training layer: N ranks (goroutines) synchronize gradients
// with all-reduce / all-gather primitives operating on real data.
//
// This substitutes for NCCL in the paper's testbed. The ranks share one
// address space, so the dense all-reduce moves no messages: every rank
// lends its vector at a rendezvous, and each rank reduces one chunk of all
// of them in place and writes that chunk back to every rank. It adds the
// ranks' contributions to a chunk in the order the bandwidth-optimal ring
// all-reduce (reduce-scatter + all-gather) does, so it returns the ring's
// result bit for bit, in a sum and a mean flavour, and allocates nothing.
// Every rank observes a bit-identical result, the property gradient-reuse
// checkpointing depends on (every worker persists the same differential).
package comm

import (
	"fmt"
	"sync"

	"lowdiff/internal/compress"
	"lowdiff/internal/tensor"
)

// Group is a communicator over n ranks. All collective calls must be made
// by every rank (one goroutine per rank); calls rendezvous like MPI
// collectives. A Group is reusable across any number of sequential
// collectives but a single collective must not be issued twice
// concurrently by the same rank.
type Group struct {
	n    int
	mu   sync.Mutex
	cond *sync.Cond

	arrived int
	gen     uint64

	// slots[r] is rank r's exchange deposit; out is the copy of slots
	// that every rank reads after the rendezvous.
	slots, out []interface{}
	// vecs[r] is rank r's vector in the current all-reduce.
	vecs []tensor.Vector
}

// NewGroup returns a communicator for n ranks. n must be positive.
func NewGroup(n int) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: group size %d must be positive", n)
	}
	g := &Group{n: n, slots: make([]interface{}, n),
		out: make([]interface{}, n), vecs: make([]tensor.Vector, n)}
	g.cond = sync.NewCond(&g.mu)
	return g, nil
}

// Size returns the number of ranks.
func (g *Group) Size() int { return g.n }

// rendezvous blocks until every rank has entered it; the last to arrive
// copies the exchange deposits to out before it releases the others. A
// rank writes only its own slot, and only between rendezvous, so every
// deposit made before a rendezvous is visible to every rank after it.
func (g *Group) rendezvous() {
	g.mu.Lock()
	defer g.mu.Unlock()
	gen := g.gen
	g.arrived++
	if g.arrived == g.n {
		g.arrived = 0
		copy(g.out, g.slots)
		g.gen++
		g.cond.Broadcast()
		return
	}
	for gen == g.gen {
		g.cond.Wait()
	}
}

// exchange deposits in and returns every rank's deposit, indexed by rank.
// All ranks return together. The returned slice is shared and reused: it
// is valid until the calling rank's next collective.
func (g *Group) exchange(rank int, in interface{}) []interface{} {
	g.slots[rank] = in
	g.rendezvous()
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
	g.rendezvous()
	return nil
}

// RingAllReduceSum replaces v on every rank, in place, with the
// elementwise sum of all ranks' v, bit-identical to the bandwidth-optimal
// ring all-reduce (reduce-scatter then all-gather). Vectors must have
// equal length on all ranks; otherwise every rank returns the same error
// and v is left as it was.
func (g *Group) RingAllReduceSum(rank int, v tensor.Vector) error {
	return g.ringAllReduce(rank, v, false)
}

// RingAllReduceMean is RingAllReduceSum followed by scaling by 1/n, in the
// same pass: each chunk's sum is scaled as its last contribution is
// added. The result is bit-identical to RingAllReduceSum then Scale(1/n).
// With one rank it leaves v as it is.
func (g *Group) RingAllReduceMean(rank int, v tensor.Vector) error {
	return g.ringAllReduce(rank, v, true)
}

// chunkBounds returns the bounds of chunk i when m elements are cut into
// n chunks whose sizes differ by at most one, the larger ones first.
func chunkBounds(m, n, i int) (lo, hi int) {
	base, rem := m/n, m%n
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// ringAllReduce is the all-reduce behind both entry points. Every rank
// lends v at a first rendezvous and checks every rank's length, so all
// ranks agree on the error. Rank r then owns chunk c = (r+1) mod n, the
// chunk the ring completes on rank r: it reduces that chunk of every
// vector into rank c's copy and writes the result to the other ranks'. A
// second rendezvous returns the ranks together, so no rank's next call
// lends a vector while another rank still reads the last ones.
func (g *Group) ringAllReduce(rank int, v tensor.Vector, mean bool) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	if g.n == 1 {
		return nil
	}
	g.vecs[rank] = v
	g.rendezvous()
	err := g.checkLengths()
	if err == nil {
		g.reduceChunk((rank+1)%g.n, mean)
	}
	g.rendezvous()
	return err
}

// checkLengths returns an error naming the first rank whose vector length
// differs from rank 0's.
func (g *Group) checkLengths() error {
	m := len(g.vecs[0])
	for r, v := range g.vecs {
		if len(v) != m {
			return fmt.Errorf("comm: ring allreduce length mismatch: rank %d has %d, rank 0 has %d", r, len(v), m)
		}
	}
	return nil
}

// reduceChunk reduces chunk c as the ring does. The ring starts the chunk
// on rank c and passes it on, each rank adding its own contribution to the
// running sum it receives: acc = x[c+1] + x[c], then x[c+2] + acc, and so
// on to x[c-1]. The adds keep that operand order. The mean rounds the last
// sum to float32 before it scales it.
func (g *Group) reduceChunk(c int, mean bool) {
	n := g.n
	lo, hi := chunkBounds(len(g.vecs[0]), n, c)
	acc := g.vecs[c][lo:hi]
	inv := 1 / float32(n)
	for j := 1; j < n; j++ {
		x := g.vecs[(c+j)%n][lo:hi]
		x = x[:len(acc)]
		if mean && j == n-1 {
			for i := range acc {
				acc[i] = float32(x[i]+acc[i]) * inv
			}
			continue
		}
		for i := range acc {
			acc[i] = x[i] + acc[i]
		}
	}
	for r, v := range g.vecs {
		if r != c {
			copy(v[lo:hi], acc)
		}
	}
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
	merged, err := compress.Merge(parts...)
	if err != nil {
		return nil, err
	}
	// Average the sum so the synchronized gradient is the mean of worker
	// gradients, matching the data-parallel convention.
	inv := 1 / float32(g.n)
	for i := range merged.Vals {
		merged.Vals[i] *= inv
	}
	g.exchange(rank, nil) // release inputs only after all ranks merged
	return merged, nil
}
