// Package comm provides in-process collective communication for the
// functional training layer: N ranks (goroutines) synchronize gradients
// with all-reduce / all-gather primitives operating on real data.
//
// This substitutes for NCCL in the paper's testbed. The dense collective
// is the bandwidth-optimal ring all-reduce (reduce-scatter + all-gather,
// the algorithm real training systems use), in a sum and a mean flavour.
// Each rank transmits from send buffers it owns and reuses across calls,
// as a real NIC transmits from registered buffers, so a call allocates
// nothing once the buffers have grown to the largest chunk. Every rank
// observes a bit-identical result, the property gradient-reuse
// checkpointing depends on (every worker persists the same differential).
package comm

import (
	"errors"
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
	ring []chan ringMsg
	// send[i] is rank i's transmit side; only rank i touches it.
	send []ringSender
}

// ringMsg is one ring hop: a chunk of the sender's vector (a view of one
// of its send buffers), the sender's total length, and whether the
// sender has seen an error in this call.
type ringMsg struct {
	data  tensor.Vector
	total int
	fail  bool
}

// ringSendBufs is the number of send buffers a rank rotates through.
// Three are enough with cap-1 ring channels: when a rank starts writing
// send k+3 into the buffer of send k, its send k+2 has completed, so the
// receiver has dequeued message k+1, and a receiver dequeues a message
// only after it has finished with the one before. With two buffers, send
// k+1 completing proves only that message k was dequeued, not that the
// receiver has finished reading it.
const ringSendBufs = 3

// ringSender is one rank's transmit side: its send buffers, the count of
// messages sent, which picks the buffer, and the largest chunk seen. The
// count runs across calls, as the argument above needs.
type ringSender struct {
	bufs    [ringSendBufs]tensor.Vector
	seq     int
	largest int
}

// slot returns the next send buffer in rotation, resliced to size. A
// buffer too small for size grows to the largest chunk seen, counting
// largest, the biggest chunk of the current call.
func (s *ringSender) slot(size, largest int) tensor.Vector {
	b := &s.bufs[s.seq%ringSendBufs]
	s.seq++
	if cap(*b) < size {
		s.largest = max(s.largest, largest)
		*b = tensor.New(s.largest)
	}
	return (*b)[:size]
}

// NewGroup returns a communicator for n ranks. n must be positive.
func NewGroup(n int) (*Group, error) {
	return NewGroupPooled(n, nil)
}

// NewGroupPooled returns a communicator whose sparse all-gather (union
// merge and mean scaling) is sharded over pool. Results stay
// bit-identical to the serial group.
func NewGroupPooled(n int, pool *parallel.Pool) (*Group, error) {
	if n <= 0 {
		return nil, fmt.Errorf("comm: group size %d must be positive", n)
	}
	g := &Group{n: n, pool: pool, slots: make([]interface{}, n),
		ring: make([]chan ringMsg, n), send: make([]ringSender, n)}
	g.cond = sync.NewCond(&g.mu)
	for i := range g.ring {
		g.ring[i] = make(chan ringMsg, 1)
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

// errRingPeer is the error of a rank that learned of a failure from the
// ring rather than seeing it itself.
var errRingPeer = errors.New("comm: ring allreduce aborted: another rank reported a length mismatch")

// RingAllReduceSum performs the bandwidth-optimal ring all-reduce in place:
// a reduce-scatter phase (n-1 steps) followed by an all-gather phase
// (n-1 steps), each rank exchanging one chunk with its ring neighbours per
// step. Every rank finishes with a bit-identical sum. Vectors must have
// equal length on all ranks; otherwise every rank returns an error and
// the contents of v are unspecified.
func (g *Group) RingAllReduceSum(rank int, v tensor.Vector) error {
	return g.ringAllReduce(rank, v, false)
}

// RingAllReduceMean is RingAllReduceSum followed by scaling by 1/n, in the
// same passes: each chunk's owner scales the sum as it completes it in the
// last reduce-scatter step, and the all-gather circulates the scaled
// values. The result is bit-identical to RingAllReduceSum then
// Scale(1/n). With one rank it leaves v as it is.
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

// ringAllReduce is the ring all-reduce behind both entry points. The ranks
// meet only through the ring: every message carries the sender's length
// and an error flag, so a rank that finds a length unlike its own, or
// receives the flag, stops touching data but keeps forwarding the flag for
// the remaining steps. The flag needs at most n-1 hops to reach every rank
// and the call has 2(n-1) steps, so every rank returns the error and none
// blocks.
func (g *Group) ringAllReduce(rank int, v tensor.Vector, mean bool) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	n := g.n
	if n == 1 {
		return nil
	}
	m := len(v)
	inv := 1 / float32(n)
	next := g.ring[rank]         // we send here
	prev := g.ring[(rank+n-1)%n] // we receive here
	snd := &g.send[rank]
	_, largest := chunkBounds(m, n, 0) // chunk 0 is a largest one
	var err error
	for s := 0; s < 2*(n-1); s++ {
		// Reduce-scatter (s < n-1): after step s, rank r holds the running
		// sum of chunk (r-s-1) mod n over s+2 contributors, so after n-1
		// steps rank r owns the fully reduced chunk (r+1) mod n.
		// All-gather: the reduced chunks circulate around the ring.
		sendIdx, recvIdx := (rank-s+n)%n, (rank-s-1+2*n)%n
		if s >= n-1 {
			a := s - (n - 1)
			sendIdx, recvIdx = (rank+1-a+2*n)%n, (rank-a+2*n)%n
		}
		msg := ringMsg{total: m, fail: err != nil}
		if err == nil {
			lo, hi := chunkBounds(m, n, sendIdx)
			msg.data = snd.slot(hi-lo, largest)
			copy(msg.data, v[lo:hi])
		}
		next <- msg
		in := <-prev
		switch {
		case err != nil:
			continue
		case in.fail:
			err = errRingPeer
			continue
		case in.total != m:
			err = fmt.Errorf("comm: ring allreduce length mismatch: rank %d has %d, rank %d has %d",
				rank, m, (rank+n-1)%n, in.total)
			continue
		}
		lo, hi := chunkBounds(m, n, recvIdx)
		c := v[lo:hi]
		d := in.data[:len(c)]
		switch {
		case s >= n-1:
			copy(c, d)
		case mean && s == n-2:
			for i := range c {
				c[i] = float32(c[i]+d[i]) * inv // the sum rounds before the scale
			}
		default:
			for i := range c {
				c[i] += d[i]
			}
		}
	}
	return err
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
