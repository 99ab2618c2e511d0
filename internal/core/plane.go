package core

import (
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

// fullJob carries one full checkpoint to the persist goroutine. release,
// when set, returns the snapshot's staging buffer to the overlap
// schedule's double buffer after the persist attempt (the params must
// not be touched once released).
type fullJob struct {
	f       *checkpoint.Full
	release func()
}

// fullQueueDepth bounds the snapshotted-but-unpersisted fulls: deep enough
// that a fallback full taken right behind a boundary full does not stall the
// trainer on a slow store, shallow enough to bound snapshot memory.
const fullQueueDepth = 4

// startFullPersister starts the asynchronous full-checkpoint persister
// (CheckFreq-style: synchronous snapshot, asynchronous persist) for one Run
// and publishes its channel as rc.fulls. DP boundary and fallback fulls,
// LowDiff+ replica persists, and PP's overlapped boundary fulls all feed it.
// The returned stop closes the channel and waits for the drain.
func (e *Engine) startFullPersister(rc *runCtx) (stop func()) {
	rc.fulls = make(chan fullJob, fullQueueDepth)
	done := make(chan struct{})
	go func() {
		defer close(done)
		broken := false
		for job := range rc.fulls {
			if !broken {
				if err := e.persistFull(job.f); err != nil {
					rc.errCh <- err
					broken = true // keep draining so producers never block on a dead sink
				}
			}
			// Release staging buffers even in drain mode: the overlap
			// scheduler blocks in Acquire when both buffers are out.
			if job.release != nil {
				job.release()
			}
		}
	}()
	return func() {
		close(rc.fulls)
		<-done
	}
}

// chainSink is the one consumer of the differential chain: it feeds the
// batched writer, cuts batches at full-checkpoint boundaries so a batch never
// straddles the recovery base, and owns the fault ladder's differential rung.
// The DP queue consumer, the Peer storage fallback, and the PP merge
// coordinator each drive one from a single goroutine.
type chainSink struct {
	e  *Engine
	rc *runCtx
	// requestFull asks the trainer for an on-demand full checkpoint as the
	// fresh chain base after a persistent write failure. PP leaves it unset:
	// stage 0 snapshots fulls only at aligned boundaries, so its chain waits
	// for the next periodic one.
	requestFull bool

	broken    bool // fail-fast error reported: discard so producers never block on a dead sink
	suspended bool // chain broken: drop until the first gradient after a freshly persisted full
}

// add appends iteration iter's differential to the chain.
func (s *chainSink) add(iter int64, g *compress.Compressed) {
	e := s.e
	if s.broken {
		return
	}
	if s.suspended {
		// Only the first gradient after a freshly persisted full base can
		// restart the differential chain; everything else is dropped (and
		// accounted).
		if e.Health() == HealthDegraded || iter != e.lastFullIter.Load()+1 {
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
		s.fail(iter, err)
	}
}

// fail handles a differential write that failed after its retries. Without
// fault tolerance the error aborts the Run. With it, the open batch is lost
// and the chain after the last full checkpoint is broken: drop the batch,
// degrade, and discard gradients until a fresh full base lands.
func (s *chainSink) fail(iter int64, err error) {
	e := s.e
	if e.ft == nil {
		s.rc.errCh <- err
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
