package core

import (
	"sync"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/compress"
	"lowdiff/internal/optim"
	"lowdiff/internal/tensor"
)

// plane.go holds the checkpoint-plane pieces every strategy shares, one
// implementation each: the full-snapshot constructor, the asynchronous full
// persister, and the differential-chain sink with its fault ladder.

// snapshotFull clones a live training state into a full checkpoint.
func snapshotFull(iter int64, params tensor.Vector, opt optim.Optimizer) *checkpoint.Full {
	return &checkpoint.Full{Iter: iter, Params: params.Clone(), Opt: opt.Snapshot()}
}

// fullQueueDepth bounds the snapshotted-but-unpersisted fulls: deep enough
// that a fallback full taken right behind a boundary full does not stall the
// trainer on a slow store, shallow enough to bound snapshot memory.
const fullQueueDepth = 4

// fullPersister is the engine's one ordered full-checkpoint persist stream
// (CheckFreq-style: synchronous snapshot, asynchronous persist). DP boundary
// and fallback fulls, LowDiff+ replica persists and PP's boundary fulls are
// handed off to it FIFO; the inline persists (Peer, PP's iteration-0 base,
// Flush's replica tail) go through persistInline, behind every hand-off
// already made. The stream belongs to the engine, not to a Run: a full handed
// off on a Run's last iterations persists while the caller goes on, and Flush
// is the barrier that joins it. The worker goroutine lives only while the
// queue holds work, so an engine that is dropped needs no Close.
type fullPersister struct {
	e *Engine

	mu      sync.Mutex
	cond    *sync.Cond         // broadcast when a job is picked up or done, and when the worker exits
	queue   []*checkpoint.Full // handed off, not picked up yet; at most fullQueueDepth
	cur     *checkpoint.Full   // being persisted
	running bool               // the worker goroutine is alive
	err     error              // first persist error no Run or Flush has returned yet
	// landed holds the iterations of the newest persisted fulls, oldest
	// first: the bases a suspended chain sink may restart behind. A DP or
	// Peer sink trails the trainer by at most the reusing queue plus the
	// gradient each side holds, and the trainer takes at most one full per
	// iteration, so QueueCap+3 entries reach every base it can ask for. A
	// base that fell out only makes the sink drop on to a newer one.
	landed []int64
}

func newFullPersister(e *Engine) *fullPersister {
	p := &fullPersister{e: e}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// handOff queues one full for the worker, blocking while fullQueueDepth
// are already waiting (the trainer's back-pressure on a slow store).
func (p *fullPersister) handOff(f *checkpoint.Full) {
	p.e.fullsTaken.Inc()
	p.mu.Lock()
	for len(p.queue) >= fullQueueDepth {
		p.cond.Wait()
	}
	p.queue = append(p.queue, f)
	if !p.running {
		p.running = true
		go p.work()
	}
	p.mu.Unlock()
}

// work persists the queue in order and exits when it is empty.
func (p *fullPersister) work() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) > 0 {
		f := p.queue[0]
		n := copy(p.queue, p.queue[1:])
		p.queue[n] = nil // the slot must not pin a persisted snapshot
		p.queue = p.queue[:n]
		p.cur = f
		// An error nobody has collected yet means a dead sink: keep draining
		// without persisting so producers never block on it.
		broken := p.err != nil
		p.cond.Broadcast()
		p.mu.Unlock()
		var err error
		if !broken {
			err = p.e.persistFull(f)
		}
		p.mu.Lock()
		if err != nil {
			p.err = err
		}
		p.cur = nil
		p.cond.Broadcast()
	}
	p.running = false
	p.cond.Broadcast()
}

// join blocks until every full handed off so far has been attempted. A nil
// persister (no store) has nothing in flight.
func (p *fullPersister) join() {
	if p == nil {
		return
	}
	p.mu.Lock()
	for p.running {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// takeErr returns, exactly once, the first error of a handed-off persist.
func (p *fullPersister) takeErr() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.err
	p.err = nil
	return err
}

// await blocks while a full of iteration iter is handed off but not yet
// attempted. The wait is bounded: the worker depends on no other goroutine.
func (p *fullPersister) await(iter int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.inFlight(iter) {
		p.cond.Wait()
	}
}

// persisted records that the full of iteration iter has landed.
func (p *fullPersister) persisted(iter int64) {
	p.mu.Lock()
	if len(p.landed) == p.e.opts.QueueCap+3 {
		p.landed = p.landed[:copy(p.landed, p.landed[1:])]
	}
	p.landed = append(p.landed, iter)
	p.mu.Unlock()
}

// hasLanded reports whether the full of iteration iter has been persisted.
func (p *fullPersister) hasLanded(iter int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, it := range p.landed {
		if it == iter {
			return true
		}
	}
	return false
}

func (p *fullPersister) inFlight(iter int64) bool {
	if p.cur != nil && p.cur.Iter == iter {
		return true
	}
	for _, f := range p.queue {
		if f.Iter == iter {
			return true
		}
	}
	return false
}

// persistInline persists f on the caller's goroutine, for the sites where
// the persist must be synchronous. It first waits for the hand-offs ahead
// of it, so the engine's fulls land in one order.
func (p *fullPersister) persistInline(f *checkpoint.Full) error {
	p.join()
	p.e.fullsTaken.Inc()
	return p.e.persistFull(f)
}

// chainSink is the one consumer of the differential chain: it feeds the
// batched writer, cuts batches at full-checkpoint boundaries so a batch never
// straddles the recovery base, and owns the fault ladder's differential rung.
// The DP queue consumer, the Peer storage fallback, and the PP merge
// coordinator each drive one from a single goroutine per Run. The sink lives
// as long as the engine: a chain broken in one Run stays broken in the next
// until a fresh base lands.
type chainSink struct {
	e *Engine
	// requestFull asks the trainer for an on-demand full checkpoint as the
	// fresh chain base after a persistent write failure. PP leaves it unset:
	// stage 0 snapshots fulls only at aligned boundaries, so its chain waits
	// for the next periodic one.
	requestFull bool

	broken    bool // fail-fast error reported: discard so producers never block on a dead sink
	suspended bool // chain broken: drop until the first gradient after a freshly persisted full
}

// add appends iteration iter's differential to the chain.
func (s *chainSink) add(rc *runCtx, iter int64, g *compress.Compressed) {
	e := s.e
	if s.broken {
		return
	}
	if iter == 1 {
		// The chain's first differential applies to the iteration-0 base.
		// PP and Peer persist it inline; DP hands it off so that it overlaps
		// the first iterations, and its chain waits here. Either way no
		// differential is written before its base has landed.
		e.fulls.await(0)
		if err := e.fulls.takeErr(); err != nil {
			s.fail(rc, iter, err)
			return
		}
	}
	if s.suspended {
		// Only a gradient right behind a persisted full base can restart
		// the differential chain; everything else is dropped (and
		// accounted). That base was handed off before this gradient was
		// produced, so if it has not landed yet, wait for it. A newer full
		// that landed meanwhile does not void it: the trainer runs ahead of
		// the sink, and a drop run must not cross a durable base.
		e.fulls.await(iter - 1)
		if e.Health() == HealthDegraded || !e.fulls.hasLanded(iter-1) {
			e.faults.DroppedDiffs.Inc()
			e.events.Emit("ckpt.diff.drop", e.fields(map[string]any{"iter": iter}))
			return
		}
		s.suspended = false
	}
	err := e.writer.Add(iter, g)
	if err == nil && iter%int64(e.opts.FullEvery) == 0 {
		err = e.writer.Cut()
	}
	if err != nil {
		s.fail(rc, iter, err)
	}
}

// fail handles a differential write that failed after its retries. Without
// fault tolerance the error aborts the Run. With it, the open batch is lost
// and the chain after the last full checkpoint is broken: drop the batch,
// degrade, and discard gradients until a fresh full base lands.
func (s *chainSink) fail(rc *runCtx, iter int64, err error) {
	e := s.e
	if e.ft == nil {
		rc.errCh <- err
		s.broken = true
		return
	}
	e.faults.DiffFailures.Inc()
	e.writer.Drop()
	s.suspended = true
	e.degradeTo(HealthDegradedDiff)
	e.faults.FullFallbacks.Inc()
	e.events.Emit("ckpt.diff.fallback", e.fields(map[string]any{"iter": iter}))
	if s.requestFull {
		e.needFull.Store(true)
	}
}

// park abandons the open batch and suspends the chain until a fresh base
// lands; the Peer strategy parks its fallback chain while the peer plane is
// healthy.
func (s *chainSink) park() {
	if s.broken {
		return
	}
	s.e.writer.Drop()
	s.suspended = true
}
