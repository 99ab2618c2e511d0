package comm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"lowdiff/internal/compress"
	"lowdiff/internal/trace"
)

// Trace constants for the retain plane, aliased from the canonical
// taxonomy so comm call sites read locally.
const (
	TrackRetain = trace.TrackComm
	PhaseRetain = trace.PhaseRetain
)

// ErrNoSurvivingPeer reports that no surviving peer's window can extend the
// requested base at all.
var ErrNoSurvivingPeer = errors.New("comm: no surviving peer window extends the base")

// Peers is the peer-replication plane: one differential Window per rank,
// crash state, and optional chaos injection. Every rank retains the merged
// compressed gradient it received from the all-gather, so after any crash
// the survivors' windows collectively hold the differentials needed to
// rebuild the lost state on top of the last full checkpoint.
type Peers struct {
	depth   int
	windows []*Window
	crashed []atomic.Bool
	chaos   *Chaos

	// pending holds one delayed payload per rank (chaos late arrivals);
	// it becomes visible at the rank's next retain.
	mu      sync.Mutex
	pending []*pendingRetain

	// Trace, when non-nil, records a comm/retain span per Retain call
	// (the peer plane's per-iteration checkpoint cost). Set it before
	// the first Retain; a nil recorder adds nothing to the hot path.
	Trace *trace.Recorder
}

type pendingRetain struct {
	iter int64
	grad *compress.Compressed
}

// NewPeers builds n peer windows of the given depth. chaos may be nil.
func NewPeers(n, depth int, chaos *Chaos) (*Peers, error) {
	if n < 1 {
		return nil, fmt.Errorf("comm: peer count %d must be >= 1", n)
	}
	p := &Peers{
		depth:   depth,
		windows: make([]*Window, n),
		crashed: make([]atomic.Bool, n),
		pending: make([]*pendingRetain, n),
		chaos:   chaos,
	}
	for i := range p.windows {
		w, err := NewWindow(depth)
		if err != nil {
			return nil, err
		}
		p.windows[i] = w
	}
	if chaos != nil {
		for _, cr := range chaos.cfg.Crashes {
			if cr.Rank >= n {
				return nil, fmt.Errorf("comm: chaos crash rank %d out of range [0,%d)", cr.Rank, n)
			}
		}
	}
	return p, nil
}

// Size returns the number of peers.
func (p *Peers) Size() int { return len(p.windows) }

// Depth returns the window depth W.
func (p *Peers) Depth() int { return p.depth }

// Window exposes rank's window (for occupancy metrics and tests).
func (p *Peers) Window(rank int) *Window { return p.windows[rank] }

// Chaos returns the injector's counters (zero when no chaos is wired).
func (p *Peers) ChaosCounters() ChaosCounters {
	if p.chaos == nil {
		return ChaosCounters{}
	}
	return p.chaos.Counters()
}

// Crash marks rank as crashed and drops its window, as if the process died
// with its replica memory. Idempotent.
func (p *Peers) Crash(rank int) {
	if rank < 0 || rank >= len(p.windows) {
		return
	}
	if p.crashed[rank].CompareAndSwap(false, true) {
		p.windows[rank].Clear()
		p.mu.Lock()
		p.pending[rank] = nil
		p.mu.Unlock()
	}
}

// Crashed reports whether rank has crashed.
func (p *Peers) Crashed(rank int) bool {
	return rank >= 0 && rank < len(p.windows) && p.crashed[rank].Load()
}

// Survivors returns the ranks that have not crashed, in rank order.
func (p *Peers) Survivors() []int {
	out := make([]int, 0, len(p.windows))
	for r := range p.windows {
		if !p.crashed[r].Load() {
			out = append(out, r)
		}
	}
	return out
}

// Retain records rank's received differential for iteration iter, applying
// any configured chaos: scheduled crashes kill the rank's window outright,
// dropped payloads never land, corrupted ones land with a flipped bit (the
// caller's gradient is untouched), and late ones become visible only at the
// rank's next retain.
func (p *Peers) Retain(rank int, iter int64, grad *compress.Compressed) error {
	if rank < 0 || rank >= len(p.windows) {
		return fmt.Errorf("comm: retain rank %d out of range [0,%d)", rank, len(p.windows))
	}
	done := p.Trace.Begin2(TrackRetain, PhaseRetain, "iter", iter, "rank", int64(rank))
	defer done()
	if p.crashed[rank].Load() {
		return nil // dead peers retain nothing
	}
	c := p.chaos
	if c != nil && c.crashesAt(rank, iter) {
		p.Crash(rank)
		c.crashes.Inc()
		c.cfg.Events.Emit("chaos.peer_crash", map[string]any{"rank": rank, "iter": iter})
		return nil
	}
	// A delayed payload from the previous iteration becomes visible now.
	p.mu.Lock()
	late := p.pending[rank]
	p.pending[rank] = nil
	p.mu.Unlock()
	if late != nil {
		if err := p.windows[rank].Retain(late.iter, late.grad); err != nil {
			return err
		}
	}
	if c != nil {
		switch {
		case c.draw(c.cfg.DropProb, rank, iter, chaosKindDrop):
			c.drops.Inc()
			c.cfg.Events.Emit("chaos.peer_drop", map[string]any{"rank": rank, "iter": iter})
			return nil
		case c.draw(c.cfg.CorruptProb, rank, iter, chaosKindCorrupt):
			// Retain the clean payload first (fixing its checksum), then
			// swap in a bit-flipped copy so verification fails on read.
			if err := p.windows[rank].Retain(iter, grad); err != nil {
				return err
			}
			p.windows[rank].corrupt(iter, flipOneBit(grad, mix(c.cfg.Seed^chaosKindBit^uint64(iter))))
			c.corruptions.Inc()
			c.cfg.Events.Emit("chaos.peer_corrupt", map[string]any{"rank": rank, "iter": iter})
			return nil
		case c.draw(c.cfg.LateProb, rank, iter, chaosKindLate):
			p.mu.Lock()
			p.pending[rank] = &pendingRetain{iter: iter, grad: grad}
			p.mu.Unlock()
			c.late.Inc()
			c.cfg.Events.Emit("chaos.peer_late", map[string]any{"rank": rank, "iter": iter})
			return nil
		}
	}
	return p.windows[rank].Retain(iter, grad)
}

// flipOneBit clones the gradient and flips one value bit selected by key.
func flipOneBit(grad *compress.Compressed, key uint64) *compress.Compressed {
	c := grad.Clone()
	if len(c.Vals) > 0 {
		i := int(key % uint64(len(c.Vals)))
		c.Vals[i] = math.Float32frombits(math.Float32bits(c.Vals[i]) ^ (1 << (key % 32)))
	}
	return c
}

// Covered reports whether any surviving peer's window covers (base, target].
func (p *Peers) Covered(base, target int64) bool {
	for r := range p.windows {
		if p.crashed[r].Load() {
			continue
		}
		if p.windows[r].Covers(base, target) {
			return true
		}
	}
	return false
}

// MinOccupancy returns the smallest valid-entry count across surviving
// windows (0 when every peer crashed) — the occupancy gauge the obs
// registry exports.
func (p *Peers) MinOccupancy() int {
	minOcc := -1
	for r := range p.windows {
		if p.crashed[r].Load() {
			continue
		}
		occ := p.windows[r].Occupancy()
		if minOcc < 0 || occ < minOcc {
			minOcc = occ
		}
	}
	if minOcc < 0 {
		return 0
	}
	return minOcc
}

// BestRestore selects the surviving peer whose window extends base the
// farthest (ties break to the lowest rank, so selection is deterministic)
// and returns that rank, the covered differentials in iteration order, and
// the iteration they reach. It fails with ErrNoSurvivingPeer when no
// surviving window extends base at all.
func (p *Peers) BestRestore(base int64) (rank int, grads []*compress.Compressed, target int64, err error) {
	bestRank, bestIter := -1, base
	for r := range p.windows {
		if p.crashed[r].Load() {
			continue
		}
		if t := p.windows[r].NewestCovered(base); t > bestIter {
			bestRank, bestIter = r, t
		}
	}
	if bestRank < 0 {
		return -1, nil, base, ErrNoSurvivingPeer
	}
	grads, err = p.windows[bestRank].Slice(base, bestIter)
	if err != nil {
		return -1, nil, base, err
	}
	return bestRank, grads, bestIter, nil
}
