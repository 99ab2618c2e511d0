package core

import (
	"fmt"
	"sync"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/compress"
	"lowdiff/internal/obs"
	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
	"lowdiff/internal/trace"
)

// overlap.go is the pipelined step schedule for the data-parallel
// strategy (DESIGN.md §11). The sequential chain pays every
// checkpoint-plane cost — the reuse-queue hand-off, the Naïve-DC delta
// compression of §3.1 Challenge 1, and the full-snapshot clone — inline
// between apply(t) and compute(t+1). The scheduler moves that work onto
// its own goroutine, DelayCheck-style: the trainer deposits a slot after
// apply(t), and the slot's state-reading slices are gated so they run
// inside the AllGatherSparse wave of iteration t+1, when the parameters
// and optimizer moments are guaranteed quiescent.
//
// Bit-exactness survives because nothing about the *values* changes:
// the gated slices read exactly the bytes the sequential schedule read
// (params after apply(t), before apply(t+1)), run the same kernels on
// the same fixed chunk grid, and the scheduler drains slots FIFO so the
// reuse queue and the full-checkpoint channel see items in the exact
// sequential order. Only the wall-clock placement moves.
//
// The rendezvous protocol per slot t:
//
//	trainer                                scheduler
//	  apply(t)
//	  deposit(t)  ──workCh──▶                pick up slot t (FIFO)
//	  compute(t+1)                           queue.Put(grad t)   [ungated]
//	  allgather(t+1) opens span
//	    openGate(t) ── close(gate) ──▶       delta/snapshot slices [gated]
//	    AllGatherSparse wave                 e.fulls ◀── staged full
//	    rendezvous(t) ◀── close(done) ──     recycle slot to freeCh
//	  allgather(t+1) span closes
//	  apply(t+1)
//
// Two slots circulate (the double buffer): deposit(t) can only block
// until slot t-2 retires, so at most one iteration of checkpoint work
// is ever in flight behind the trainer.

// overlapSlot is one deposited iteration's checkpoint-plane work.
type overlapSlot struct {
	iter     int64
	grad     *compress.Compressed // synced-gradient hand-off (nil under Naïve DC)
	doFull   bool                 // boundary or fallback full this iteration
	gateOpen bool                 // trainer-side: gate already closed
	gate     chan struct{}        // closed by openGate at allgather(iter+1)
	done     chan struct{}        // closed by the scheduler when the slot retires
}

// overlapScheduler owns the checkpoint plane of an overlapped DP run.
type overlapScheduler struct {
	e  *Engine
	rc *runCtx

	freeCh  chan *overlapSlot // recycled slots (cap 2: the double buffer)
	workCh  chan *overlapSlot // deposited slots, drained FIFO
	drainCh chan struct{}     // closed at end: releases gates the trainer never opened
	pending *overlapSlot      // trainer-side: newest deposited, not yet retired
	wg      sync.WaitGroup
	broken  bool // scheduler-side: first error reported, drain the rest

	// Naïve-DC state, owned by the scheduler: its own compressor (same
	// construction as the trainer's, valid only for stateless codecs —
	// initDP rejects the rest) plus the previous-params and delta
	// buffers the sequential path would keep on the rank.
	comp  compress.Compressor
	prev  tensor.Vector
	delta tensor.Vector

	// staging double-buffers boundary full snapshots: params are copied
	// into an owned buffer on the fixed chunk grid and released by the
	// persist goroutine, bounding in-flight snapshot memory at two.
	staging *parallel.DoubleBuf
}

// newOverlapScheduler wires the scheduler for one Run. Called from
// dpTopology.begin once the chain snapshotter has built the queue; the
// compressor and staging buffers are built once at init (initDP) and
// reused across Run calls. Under Naïve DC the previous-params buffer is
// cloned here, exactly where the sequential rank would clone it, so
// chunked runs see the same delta chain.
func newOverlapScheduler(e *Engine, rc *runCtx,
	comp compress.Compressor, staging *parallel.DoubleBuf) *overlapScheduler {
	s := &overlapScheduler{
		e: e, rc: rc,
		freeCh:  make(chan *overlapSlot, 2),
		workCh:  make(chan *overlapSlot, 2),
		drainCh: make(chan struct{}),
		comp:    comp,
		staging: staging,
	}
	s.freeCh <- &overlapSlot{}
	s.freeCh <- &overlapSlot{}
	if comp != nil {
		s.prev = e.params[0].Flat.Clone()
		s.delta = tensor.New(len(s.prev))
	}
	s.wg.Add(1)
	go s.run()
	return s
}

// validateOverlap rejects option combinations the schedule cannot keep
// bit-exact (or durable). Called from initDP and initPeer.
func validateOverlap(opts Options) error {
	if !opts.Overlap {
		return nil
	}
	if opts.Peer != nil {
		return fmt.Errorf("core: Overlap is not supported with the Peer strategy; peer durability requires the synchronous boundary persist")
	}
	if opts.NaiveDC && opts.Codec == "randk" {
		return fmt.Errorf("core: Overlap with NaiveDC requires a stateless codec; randk draws from a per-compressor stream the scheduler cannot replicate")
	}
	if opts.NaiveDC && opts.ErrorFeedback {
		return fmt.Errorf("core: Overlap with NaiveDC cannot share the trainer's error-feedback residual; disable one of the two")
	}
	return nil
}

// deposit hands iteration t's checkpoint-plane work to the scheduler.
// Trainer-side (worker 0), called after apply(t).
func (s *overlapScheduler) deposit(t int64, grad *compress.Compressed, doFull bool) {
	slot := <-s.freeCh
	slot.iter, slot.grad, slot.doFull = t, grad, doFull
	slot.gateOpen = false
	slot.gate = make(chan struct{})
	slot.done = make(chan struct{})
	s.pending = slot
	s.e.overlapDeposits.Inc()
	s.workCh <- slot
}

// openGate releases the pending slot's state-reading slices. Called at
// the start of the allgather span of the next iteration, when apply has
// finished and the parameters are quiescent for the whole wave.
func (s *overlapScheduler) openGate() {
	if p := s.pending; p != nil && !p.gateOpen {
		p.gateOpen = true
		close(p.gate)
	}
}

// rendezvous blocks until the pending slot retires. Called before the
// allgather span of the next iteration closes, so the slot's spans nest
// inside it and apply never races the snapshot slices.
func (s *overlapScheduler) rendezvous() {
	if p := s.pending; p != nil {
		<-p.done
		s.pending = nil
	}
}

// stop opens any gate the trainer never reached (last iteration, or an
// error mid-loop), then drains and joins the scheduler goroutine.
// Called from dpTopology.end after the trainer goroutines exit.
func (s *overlapScheduler) stop() {
	if p := s.pending; p != nil && !p.gateOpen {
		p.gateOpen = true
		close(p.gate)
	}
	close(s.drainCh)
	close(s.workCh)
	s.wg.Wait()
}

// run drains deposited slots FIFO, preserving the sequential order of
// queue items and full checkpoints.
func (s *overlapScheduler) run() {
	defer s.wg.Done()
	for slot := range s.workCh {
		s.process(slot)
		close(slot.done)
		s.freeCh <- slot
	}
}

// fail reports the first scheduler error and degrades to drain mode so
// the trainer's rendezvous never blocks on a dead plane.
func (s *overlapScheduler) fail(err error) {
	if s.broken {
		return
	}
	s.broken = true
	s.rc.errCh <- err
}

// process runs one slot's slices: the ungated queue hand-off first,
// then — behind the gate — the Naïve-DC delta and the partitioned full
// snapshot, in the exact order the sequential schedule used.
func (s *overlapScheduler) process(slot *overlapSlot) {
	e := s.e
	rec := e.opts.Trace
	if slot.grad != nil && !s.broken {
		putDone := rec.Begin1(trace.TrackOverlap, trace.PhaseQueueWait, "iter", slot.iter)
		err := s.rc.queue.Put(Item{Iter: slot.iter, Layer: -1, Grad: slot.grad})
		putDone()
		if err != nil {
			s.fail(err)
		}
	}
	if s.delta == nil && !slot.doFull {
		return
	}
	// Gate: wait for the next iteration's communication wave (or the
	// end-of-run drain) before touching params or optimizer state.
	select {
	case <-slot.gate:
	case <-s.drainCh:
		// The drain only fires after the trainer goroutines have
		// exited, so the state is just as quiescent as behind the gate.
	}
	if s.broken {
		return
	}
	if s.delta != nil {
		compressDone := rec.Begin1(trace.TrackOverlap, trace.PhaseCompress, "iter", slot.iter)
		params := e.params[0].Flat
		e.pool.ForEach(len(params), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				s.delta[i] = params[i] - s.prev[i]
				s.prev[i] = params[i]
			}
		})
		cd, err := s.comp.Compress(s.delta)
		compressDone()
		if err != nil {
			s.fail(err)
			return
		}
		e.overlapSlices.Inc()
		if err := s.rc.queue.Put(Item{Iter: slot.iter, Layer: -1, Grad: cd}); err != nil {
			s.fail(err)
			return
		}
	}
	if slot.doFull {
		snapDone := rec.Begin1(trace.TrackOverlap, trace.PhaseSnapshot, "iter", slot.iter)
		var full *checkpoint.Full
		var buf []float32
		e.FullSnapshotTimer.Time(func() {
			buf = s.staging.CopyFrom(e.pool, e.params[0].Flat)
			full = &checkpoint.Full{
				Iter:   slot.iter,
				Params: tensor.Vector(buf),
				Opt:    e.opts2[0].Snapshot(),
			}
		})
		snapDone()
		e.overlapSlices.Inc()
		e.fulls.handOff(fullJob{f: full, release: func() { s.staging.Release(buf) }})
	}
}

// registerOverlapMetrics exposes the schedule's instruments.
func (e *Engine) registerOverlapMetrics(reg *obs.Registry) {
	reg.FuncCounter("overlap.deposits", e.overlapDeposits.Value)
	reg.FuncCounter("overlap.slices", e.overlapSlices.Value)
}
