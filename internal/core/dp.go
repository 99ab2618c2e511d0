package core

import (
	"fmt"
	"sync"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/comm"
	"lowdiff/internal/compress"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/optim"
	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
	"lowdiff/internal/trace"
)

// Data-parallel LowDiff (§4): Workers lock-step ranks with Top-K gradient
// compression, a reusing queue to an asynchronous checkpointer, batched
// differential writes, and periodic full checkpoints.

// initDP validates the data-parallel options and wires the dpTopology /
// chainSnapshotter pair.
func (e *Engine) initDP() error {
	opts := e.opts
	if err := validateChain(opts); err != nil {
		return err
	}
	if err := validateOverlap(opts); err != nil {
		return err
	}
	if err := e.initDPWorkers(); err != nil {
		return err
	}
	if opts.Store != nil && !opts.DisableDiffs {
		kind := checkpoint.KindGradient
		if opts.NaiveDC {
			kind = checkpoint.KindStateDelta
		}
		if err := e.newWriter(kind); err != nil {
			return err
		}
	}
	topo := &dpTopology{e: e}
	// The overlap schedule's long-lived pieces — the scheduler-owned
	// Naïve-DC compressor and the snapshot staging double buffer — are
	// built once here so chunked Run calls reuse them (and so codec
	// errors surface at init, where they can be returned).
	if opts.Overlap && opts.Store != nil {
		if opts.NaiveDC && !opts.DisableDiffs {
			comp, err := compress.NewPooled(opts.Codec, opts.Rho, opts.Seed, e.pool)
			if err != nil {
				return err
			}
			topo.overlapComp = comp
		}
		topo.staging = parallel.NewDoubleBuf(opts.Spec.NumParams())
	}
	e.topo = topo
	e.snap = &chainSnapshotter{e: e, sink: chainSink{e: e, requestFull: true}}
	return nil
}

// validateChain checks the checkpoint intervals shared by every strategy
// that persists a differential chain (DP, Peer, PP).
func validateChain(opts Options) error {
	if opts.FullEvery < 1 {
		return fmt.Errorf("core: FullEvery %d must be >= 1", opts.FullEvery)
	}
	if opts.BatchSize < 1 {
		return fmt.Errorf("core: BatchSize %d must be >= 1", opts.BatchSize)
	}
	if opts.RetainFulls < 0 {
		return fmt.Errorf("core: RetainFulls %d must be >= 0", opts.RetainFulls)
	}
	if opts.FullEvery%opts.BatchSize != 0 {
		return fmt.Errorf("core: FullEvery (%d) must be a multiple of BatchSize (%d) so batches never straddle a full checkpoint",
			opts.FullEvery, opts.BatchSize)
	}
	return nil
}

// initDPWorkers builds the data-parallel worker state shared by the DP and
// Peer strategies: the communicator group and, per worker, replicated
// parameters, an optimizer, and a compressor.
func (e *Engine) initDPWorkers() error {
	opts := e.opts
	if opts.Workers < 1 {
		return fmt.Errorf("core: %d workers; need at least 1", opts.Workers)
	}
	if opts.Codec == "randk" && opts.Workers > 1 {
		return fmt.Errorf("core: randk selects different indices per worker; use topk or identity for multi-worker runs")
	}
	group, err := comm.NewGroupPooled(opts.Workers, e.pool)
	if err != nil {
		return err
	}
	e.group = group
	n := opts.Spec.NumParams()
	for w := 0; w < opts.Workers; w++ {
		p := model.NewParams(opts.Spec)
		p.InitUniform(opts.Seed + 1) // same init on every worker
		e.params = append(e.params, p)
		o, err := newOptimizer(opts, n)
		if err != nil {
			return err
		}
		e.opts2 = append(e.opts2, o)
		c, err := compress.NewPooled(opts.Codec, opts.Rho, opts.Seed+uint64(w), e.pool)
		if err != nil {
			return err
		}
		if opts.ErrorFeedback {
			ef, err := compress.NewErrorFeedback(c, n)
			if err != nil {
				return err
			}
			c = ef
		}
		e.comps = append(e.comps, c)
	}
	return nil
}

// dpTopology runs Workers data-parallel ranks over replicated parameters.
type dpTopology struct {
	e *Engine

	// Overlap schedule (DESIGN.md §11), active when opts.Overlap and a
	// store is configured: overlapComp/staging live across Run calls,
	// sched is rebuilt per Run in begin and joined in end.
	overlapComp compress.Compressor
	staging     *parallel.DoubleBuf
	sched       *overlapScheduler
}

func (d *dpTopology) ranks() int      { return d.e.opts.Workers }
func (d *dpTopology) rankKey() string { return "workers" }

func (d *dpTopology) begin(rc *runCtx) {
	e := d.e
	if e.opts.Overlap && e.opts.Store != nil {
		d.sched = newOverlapScheduler(e, rc, d.overlapComp, d.staging)
	}
}

// end joins the scheduler before the Snapshotter's end closes the queue:
// every deposited slot retires (its gradient queued, its full handed off)
// while the queue is still open.
func (d *dpTopology) end(*runCtx) {
	if d.sched != nil {
		d.sched.stop()
		d.sched = nil
	}
}

func (d *dpTopology) registerMetrics(reg *obs.Registry) {
	e := d.e
	reg.FuncGauge("engine.iter", func() float64 { return float64(e.live.Load()) })
	reg.FuncGauge("engine.health", func() float64 { return float64(e.Health()) })
	reg.FuncGauge("engine.workers", func() float64 { return float64(e.opts.Workers) })
	if e.opts.Overlap {
		e.registerOverlapMetrics(reg)
	}
}

func (d *dpTopology) newTrainRank(w int) trainRank {
	e := d.e
	return trainRank{e: e, w: w, p: e.params[w], o: e.opts2[w], g: tensor.New(e.opts.Spec.NumParams())}
}

func (d *dpTopology) newRank(rc *runCtx, w int) rankRunner {
	e := d.e
	r := &dpRank{trainRank: d.newTrainRank(w)}
	if w == 0 {
		r.sched = d.sched
	}
	// Naïve DC retains the previous model state to compute the
	// differential from — the extra memory cost §3.4 points out. Under
	// the overlap schedule that state lives on the scheduler instead.
	if e.opts.NaiveDC && w == 0 && rc.queue != nil && r.sched == nil {
		r.prev = r.p.Flat.Clone()
		r.delta = tensor.New(len(r.p.Flat))
	}
	return r
}

// trainRank is the train half of one data-parallel worker's iteration —
// compute, compress, all-gather, apply — shared by the DP and Peer
// strategies; what each does with the synchronized gradient between the
// all-gather and the apply (queue hand-off or peer retain) stays in its own
// step.
type trainRank struct {
	e     *Engine
	w     int
	p     *model.Params
	o     optim.Optimizer
	g     tensor.Vector
	sched *overlapScheduler // overlap schedule (DP worker 0, when enabled)
}

// syncGradient opens iteration t and runs its backward pass, compression and
// all-gather. It returns the synchronized gradient and the closer of worker
// 0's iteration envelope.
func (r *trainRank) syncGradient(t int64) (synced *compress.Compressed, iterDone func(), err error) {
	e, w := r.e, r.w
	tr := e.trace0(w)
	if w == 0 {
		e.live.Store(t)
		if t%int64(e.opts.FullEvery) == 0 {
			e.events.Emit("train.milestone", map[string]any{"iter": t})
		}
	}
	iterDone = tr.Begin1(trace.TrackTrain, trace.PhaseIteration, "iter", t)
	// Backward pass.
	computeDone := tr.Begin1(trace.TrackTrain, trace.PhaseCompute, "iter", t)
	if err := e.oracle.Local(r.p.Flat, w, int(t), r.g); err != nil {
		return nil, nil, err
	}
	computeDone()
	// Compress.
	compressDone := tr.Begin1(trace.TrackTrain, trace.PhaseCompress, "iter", t)
	local, err := e.comps[w].Compress(r.g)
	compressDone()
	if err != nil {
		return nil, nil, err
	}
	// Synchronize. Under the overlap schedule the previous iteration's
	// gated checkpoint slices run inside this wave: the gate opens as
	// the span opens (params are quiescent until the post-wave apply)
	// and the rendezvous completes before the span closes, so the
	// scheduler's spans nest inside this allgather span by construction.
	syncDone := tr.Begin1(trace.TrackTrain, trace.PhaseAllGather, "iter", t)
	if r.sched != nil {
		r.sched.openGate()
	}
	synced, err = e.group.AllGatherSparse(w, local)
	if r.sched != nil {
		r.sched.rendezvous()
	}
	syncDone()
	return synced, iterDone, err
}

// applyGradient decompresses and applies the synchronized gradient
// (StepSparse fuses the two).
func (r *trainRank) applyGradient(t int64, synced *compress.Compressed) error {
	applyDone := r.e.trace0(r.w).Begin1(trace.TrackTrain, trace.PhaseApply, "iter", t)
	if err := applyCompressed(r.o, r.p.Flat, synced, r.e.pool); err != nil {
		return err
	}
	applyDone()
	return nil
}

// dpRank is one data-parallel worker's per-iteration state.
type dpRank struct {
	trainRank
	prev, delta tensor.Vector // Naïve DC state (worker 0, sequential schedule)
}

func (r *dpRank) step(rc *runCtx, t int64) error {
	e, w := r.e, r.w
	tr := e.trace0(w)
	synced, iterDone, err := r.syncGradient(t)
	if err != nil {
		return err
	}
	// Reuse: zero-copy hand-off to the checkpointing process
	// (LowDiff path; Naïve DC checkpoints after the update). The
	// overlap schedule hands off through the scheduler after apply.
	if w == 0 && rc.queue != nil && !e.opts.NaiveDC && r.sched == nil {
		putDone := tr.Begin1(trace.TrackTrain, trace.PhaseQueueWait, "iter", t)
		err := rc.queue.Put(Item{Iter: t, Layer: -1, Grad: synced})
		putDone()
		if err != nil {
			return err
		}
	}
	if err := r.applyGradient(t, synced); err != nil {
		return err
	}
	// Naïve DC: compute and compress the state delta — this is
	// the compression stall of §3.1 Challenge 1, paid inline.
	if r.prev != nil {
		for i, x := range r.p.Flat {
			r.delta[i] = x - r.prev[i]
		}
		copy(r.prev, r.p.Flat)
		cd, err := e.comps[w].Compress(r.delta)
		if err != nil {
			return err
		}
		if err := rc.queue.Put(Item{Iter: t, Layer: -1, Grad: cd}); err != nil {
			return err
		}
	}
	iterDone()
	if r.sched != nil {
		// Overlap schedule: deposit this iteration's checkpoint-plane
		// work — the queue hand-off, the Naïve-DC delta, and any
		// boundary/fallback full — for dispatch during the next wave.
		// The fallback CAS happens here, at the same point in the
		// trainer's timeline as the sequential branch below.
		var gradItem *compress.Compressed
		if rc.queue != nil && !e.opts.NaiveDC {
			gradItem = synced
		}
		fallback := e.needFull.CompareAndSwap(true, false)
		doFull := fallback || t%int64(e.opts.FullEvery) == 0
		r.sched.deposit(t, gradItem, doFull)
		return nil
	}
	// Full checkpoint regularly — and on demand when the
	// fault-tolerance ladder requests a fresh chain base:
	// synchronous snapshot, asynchronous persist.
	if w == 0 && e.fulls != nil {
		fallback := e.needFull.CompareAndSwap(true, false)
		if fallback || t%int64(e.opts.FullEvery) == 0 {
			snapDone := tr.Begin1(trace.TrackTrain, trace.PhaseSnapshot, "iter", t)
			var full *checkpoint.Full
			e.FullSnapshotTimer.Time(func() { full = snapshotFull(t, r.p.Flat, r.o) })
			snapDone()
			e.fulls.handOff(fullJob{f: full})
		}
	}
	return nil
}

// chainSnapshotter persists the LowDiff differential chain: an asynchronous
// diff consumer draining the reuse queue into the engine's chainSink. Boundary
// and fallback fulls go to the engine's full persister (CheckFreq-style).
type chainSnapshotter struct {
	e    *Engine
	sink chainSink
	// dormant, when set, is polled per queue item: while it reports true the
	// chain is parked, and the chain only ever starts from a fallback base
	// (the Peer strategy's storage fallback).
	dormant func() bool
	wg      sync.WaitGroup
}

func (s *chainSnapshotter) begin(rc *runCtx) error {
	e := s.e
	if e.writer == nil {
		return nil
	}
	q, err := NewReusingQueue(e.opts.QueueCap)
	if err != nil {
		return err
	}
	rc.queue = q
	e.registerQueueMetrics(q)
	s.wg.Add(1)
	go s.consumeDiffs(rc)
	return nil
}

func (s *chainSnapshotter) initialFull(rc *runCtx) error {
	if e := s.e; e.fulls != nil {
		e.fulls.handOff(fullJob{f: snapshotFull(0, e.params[0].Flat, e.opts2[0])})
	}
	return nil
}

func (s *chainSnapshotter) end(rc *runCtx) {
	if rc.queue != nil {
		rc.queue.Close()
	}
	s.wg.Wait()
}

func (s *chainSnapshotter) runEndFields(stats *RunStats) map[string]any {
	return map[string]any{
		"iter": s.e.iter, "diff_writes": stats.DiffWrites, "full_writes": stats.FullWrites,
	}
}

func (s *chainSnapshotter) registerMetrics(reg *obs.Registry) {
	e := s.e
	e.registerWriterMetrics(reg)
	reg.FuncCounter("ckpt.full.writes", e.fullWrites.Value)
	reg.FuncCounter("ckpt.full.snapshots", e.FullSnapshotTimer.Count)
	reg.FuncGauge("ckpt.full.snapshot_seconds", func() float64 { return e.FullSnapshotTimer.Total().Seconds() })
	fs := &e.faults
	reg.FuncCounter("fault.diff_retries", fs.DiffRetries.Value)
	reg.FuncCounter("fault.full_retries", fs.FullRetries.Value)
	reg.FuncCounter("fault.diff_failures", fs.DiffFailures.Value)
	reg.FuncCounter("fault.full_failures", fs.FullFailures.Value)
	reg.FuncCounter("fault.full_fallbacks", fs.FullFallbacks.Value)
	reg.FuncCounter("fault.dropped_diffs", fs.DroppedDiffs.Value)
	reg.FuncCounter("fault.gc_failures", fs.GCFailures.Value)
	reg.FuncCounter("fault.degradations", fs.Degradations.Value)
	reg.FuncCounter("fault.recoveries", fs.Recoveries.Value)
	reg.FuncCounter("engine.retry.backoff", fs.RetryBackoffs.Value)
}

// registerWriterMetrics exposes the batched differential writer's
// instruments (every chain strategy: DP, Peer, PP).
func (e *Engine) registerWriterMetrics(reg *obs.Registry) {
	w := e.writer
	if w == nil {
		return
	}
	reg.FuncCounter("ckpt.diff.writes", w.Writes.Value)
	reg.FuncCounter("ckpt.diff.batches", w.Batches.Value)
	reg.FuncCounter("ckpt.diff.bytes", w.Bytes.Value)
	reg.FuncGauge("ckpt.diff.pending_bytes", func() float64 { return float64(w.PendingBytes.Value()) })
}

// consumeDiffs is the checkpointing process: diff consumer (§4.1 Alg. 1).
func (s *chainSnapshotter) consumeDiffs(rc *runCtx) {
	defer s.wg.Done()
	e := s.e
	for {
		getDone := e.opts.Trace.Begin(trace.TrackCheckpoint, trace.PhaseQueueWait, nil)
		it, err := rc.queue.Get()
		getDone()
		if err != nil {
			return // closed and drained
		}
		if s.dormant != nil && s.dormant() {
			s.sink.park()
			continue
		}
		s.sink.add(rc, it.Iter, it.Grad)
	}
}
