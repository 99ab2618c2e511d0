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
	"lowdiff/internal/tensor"
	"lowdiff/internal/trace"
)

// LowDiff+ (paper §5): gradient reuse without compression, layer-wise
// snapshotting through an offload pool, a CPU-resident model replica, and
// asynchronous persistence. Workers train with dense (uncompressed)
// ring-all-reduce gradient synchronization; each layer's synchronized
// gradient is snapshotted to "CPU memory" as soon as it is produced (reverse
// layer order, §5.1) by the offload thread pool P_s (Alg. 2), concurrently
// with the remaining layers' compute and synchronization — the trainer waits
// on the pool (H_s) before reusing its gradient buffer — and streamed through
// the reusing queue to the checkpointing process, which maintains an
// always-up-to-date CPU-resident replica of the model state (§5.2) and
// persists it asynchronously every PlusSpec.PersistEvery iterations,
// CheckFreq-style. Software failures recover from the in-memory replica
// (Engine.Replica); hardware failures reload the last persisted checkpoint.

// State is a recovered or snapshotted training state (mirrors
// recovery.State without importing it, to keep core free of a recovery
// dependency).
type State struct {
	Iter   int64
	Params tensor.Vector
	Opt    optim.State
}

// initPlus validates the LowDiff+ options and wires the plusTopology /
// replicaSnapshotter pair.
func (e *Engine) initPlus() error {
	opts := e.opts
	ps := opts.Plus
	if opts.Workers < 1 {
		return fmt.Errorf("core: %d workers; need at least 1", opts.Workers)
	}
	if ps.PersistEvery < 1 {
		return fmt.Errorf("core: PersistEvery %d must be >= 1", ps.PersistEvery)
	}
	if ps.SnapshotWorkers < 1 {
		return fmt.Errorf("core: SnapshotWorkers %d must be >= 1", ps.SnapshotWorkers)
	}
	group, err := comm.NewGroup(opts.Workers)
	if err != nil {
		return err
	}
	e.group = group
	n := opts.Spec.NumParams()
	for w := 0; w < opts.Workers; w++ {
		p := model.NewParams(opts.Spec)
		p.InitUniform(opts.Seed + 1)
		e.params = append(e.params, p)
		o, err := newOptimizer(opts, n)
		if err != nil {
			return err
		}
		e.opts2 = append(e.opts2, o)
	}
	// CPU replica: a deep copy of the (identical) worker state, mirroring
	// the paper's copy.deepcopy() at spawn time.
	ro, err := newOptimizer(opts, n)
	if err != nil {
		return err
	}
	rep := &plusReplica{params: e.params[0].Clone(), opt: ro}
	e.rep = rep
	e.tag = "plus"
	e.topo = &plusTopology{e: e}
	e.snap = &replicaSnapshotter{e: e, rep: rep}
	return nil
}

// plusReplica is the CPU-resident replica (checkpointing process state).
type plusReplica struct {
	mu          sync.Mutex
	params      *model.Params
	opt         optim.Optimizer
	iter        int64
	persistIter int64 // iteration of the last persisted checkpoint
}

func (r *plusReplica) Iter() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.iter
}

func (r *plusReplica) PersistedIter() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.persistIter
}

func (r *plusReplica) State() *State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &State{
		Iter:   r.iter,
		Params: r.params.Flat.Clone(),
		Opt:    r.opt.Snapshot(),
	}
}

func (r *plusReplica) persisted(iter int64) {
	r.mu.Lock()
	if iter > r.persistIter {
		r.persistIter = iter
	}
	r.mu.Unlock()
}

func (r *plusReplica) pendingFull() *checkpoint.Full {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.iter <= r.persistIter {
		return nil
	}
	return snapshotFull(r.iter, r.params.Flat, r.opt)
}

func (r *plusReplica) restore(params tensor.Vector, st optim.State, iter int64) error {
	o, err := optim.FromState(st, len(params))
	if err != nil {
		return err
	}
	r.mu.Lock()
	copy(r.params.Flat, params)
	r.opt = o
	r.iter = iter
	r.persistIter = iter
	r.mu.Unlock()
	return nil
}

// snapJob is one layer hand-off to the offload pool.
type snapJob struct {
	iter  int64
	layer int
	src   tensor.Vector
	hs    *sync.WaitGroup
}

// plusTopology runs Workers dense data-parallel ranks and owns the offload
// thread pool P_s (Alg. 2): pool workers copy synchronized layer gradients
// from the trainer's buffer to host memory and stream them into the reusing
// queue. The source slice stays valid until the trainer's next backward
// pass, and the trainer waits on hs before starting it.
type plusTopology struct {
	e      *Engine
	snapCh chan snapJob
	poolWG sync.WaitGroup
}

func (p *plusTopology) ranks() int      { return p.e.opts.Workers }
func (p *plusTopology) rankKey() string { return "workers" }

func (p *plusTopology) begin(rc *runCtx) {
	e := p.e
	rec := e.opts.Trace
	p.snapCh = make(chan snapJob, e.opts.Plus.SnapshotWorkers*2)
	for i := 0; i < e.opts.Plus.SnapshotWorkers; i++ {
		p.poolWG.Add(1)
		go func() {
			defer p.poolWG.Done()
			for job := range p.snapCh {
				snapDone := rec.Begin2(trace.TrackSnapshot, trace.PhaseSnapshot,
					"iter", job.iter, "layer", int64(job.layer))
				host := &compress.Compressed{
					Codec: "identity",
					N:     len(job.src),
					Vals:  append([]float32(nil), job.src...),
				}
				snapDone()
				putDone := rec.Begin2(trace.TrackSnapshot, trace.PhaseQueueWait,
					"iter", job.iter, "layer", int64(job.layer))
				err := rc.queue.Put(Item{Iter: job.iter, Layer: job.layer, Grad: host})
				putDone()
				if err != nil {
					rc.errCh <- err
				}
				job.hs.Done()
			}
		}()
	}
}

func (p *plusTopology) end(*runCtx) {
	close(p.snapCh)
	p.poolWG.Wait() // all snapshots issued before the queue closes
}

func (p *plusTopology) registerMetrics(*obs.Registry) {}

func (p *plusTopology) newRank(rc *runCtx, w int) rankRunner {
	e := p.e
	return &plusRank{
		e:       e,
		topo:    p,
		w:       w,
		p:       e.params[w],
		o:       e.opts2[w],
		g:       tensor.New(e.opts.Spec.NumParams()),
		offsets: e.opts.Spec.LayerOffsets(),
	}
}

// plusRank is one dense data-parallel worker's per-iteration state.
type plusRank struct {
	e       *Engine
	topo    *plusTopology
	w       int
	p       *model.Params
	o       optim.Optimizer
	g       tensor.Vector
	offsets []int
}

func (r *plusRank) step(rc *runCtx, t int64) error {
	e, w := r.e, r.w
	tr := e.trace0(w)
	iterDone := tr.Begin1(trace.TrackTrain, trace.PhaseIteration, "iter", t)
	if w == 0 {
		e.live.Store(t)
	}
	spec := e.opts.Spec
	// Backward pass, layer by layer in reverse order; each
	// layer synchronizes as soon as its gradient exists
	// (Alg. 2 sync threads) and is snapshotted for reuse. Backward
	// writes the layer straight into the gradient buffer and the mean
	// all-reduce runs in place there.
	var hs sync.WaitGroup // H_s: outstanding snapshot handles
	for _, l := range e.oracle.BackwardOrder() {
		view := r.g[r.offsets[l] : r.offsets[l]+spec.Layers[l].Size]
		computeDone := tr.Begin2(trace.TrackTrain, trace.PhaseCompute, "iter", t, "layer", int64(l))
		if err := e.oracle.LayerGrad(r.p.Flat, w, int(t), l, view); err != nil {
			return err
		}
		computeDone()
		gatherDone := tr.Begin2(trace.TrackTrain, trace.PhaseAllGather, "iter", t, "layer", int64(l))
		if err := e.group.RingAllReduceMean(w, view); err != nil {
			return err
		}
		gatherDone()
		if w == 0 {
			// Hand the layer to the offload pool; the copy to
			// host memory overlaps the remaining layers'
			// compute and synchronization.
			hs.Add(1)
			r.topo.snapCh <- snapJob{iter: t, layer: l, src: view, hs: &hs}
		}
	}
	// H_s.wait(): the gradient buffer may not be reused until every
	// layer snapshot has been taken.
	if w == 0 {
		waitDone := tr.Begin1(trace.TrackTrain, trace.PhaseQueueWait, "iter", t)
		e.snapTimer.Time(hs.Wait)
		waitDone()
	}
	applyDone := tr.Begin1(trace.TrackTrain, trace.PhaseApply, "iter", t)
	err := r.o.Step(r.p.Flat, r.g)
	applyDone()
	iterDone()
	return err
}

// replicaSnapshotter is the LowDiff+ checkpointing process: it assembles
// layer gradients from the reusing queue, keeps the CPU replica in
// lock-step, and persists it asynchronously every PersistEvery iterations.
type replicaSnapshotter struct {
	e          *Engine
	rep        *plusReplica
	assembleWG sync.WaitGroup
}

func (s *replicaSnapshotter) begin(rc *runCtx) error {
	e := s.e
	q, err := NewReusingQueue(e.opts.QueueCap)
	if err != nil {
		return err
	}
	rc.queue = q
	s.assembleWG.Add(1)
	go s.assemble(rc)
	return nil
}

// initialFull persists the initial replica once so hardware-failure
// recovery has a base before the first periodic persist.
func (s *replicaSnapshotter) initialFull(rc *runCtx) error {
	if s.e.fulls != nil {
		s.e.fulls.handOff(snapshotFull(0, s.rep.params.Flat, s.rep.opt))
	}
	return nil
}

func (s *replicaSnapshotter) end(rc *runCtx) {
	rc.queue.Close()
	s.assembleWG.Wait() // the assembler drains the queue, then exits
}

func (s *replicaSnapshotter) runEndFields(stats *RunStats) map[string]any {
	return map[string]any{
		"iter": s.e.iter, "replica_steps": stats.ReplicaSteps, "persists": stats.FullWrites,
	}
}

func (s *replicaSnapshotter) registerMetrics(reg *obs.Registry) {
	e := s.e
	reg.FuncGauge("plus.replica_iter", func() float64 { return float64(s.rep.Iter()) })
	reg.FuncGauge("plus.persist_iter", func() float64 { return float64(s.rep.PersistedIter()) })
	reg.FuncCounter("plus.layer_snapshots", e.layerSnapshots.Value)
	reg.FuncCounter("plus.snapshot_bytes", e.snapshotBytes.Value)
	reg.FuncCounter("plus.replica_steps", e.replicaSteps.Value)
	reg.FuncCounter("plus.persists", e.fullWrites.Value)
	reg.FuncGauge("plus.snapshot_seconds", func() float64 { return e.snapTimer.Total().Seconds() })
}

// assemble is the checkpointing process: assemble layer gradients, keep the
// CPU replica in lock-step, request persists.
func (s *replicaSnapshotter) assemble(rc *runCtx) {
	defer s.assembleWG.Done()
	e, r := s.e, s.rep
	spec := e.opts.Spec
	nLayers := len(spec.Layers)
	offsets := spec.LayerOffsets()
	assembled := tensor.New(spec.NumParams())
	seen := 0
	curIter := int64(0)
	for {
		it, err := rc.queue.Get()
		if err != nil {
			return
		}
		if it.Layer < 0 || it.Layer >= nLayers {
			rc.errCh <- fmt.Errorf("core: plus checkpointer got layer %d", it.Layer)
			return
		}
		if seen == 0 {
			curIter = it.Iter
		} else if it.Iter != curIter {
			rc.errCh <- fmt.Errorf("core: plus checkpointer got iter %d while assembling %d", it.Iter, curIter)
			return
		}
		// Snapshot: the gradient already lives in host memory here
		// (the copy happened at enqueue, the offload thread's work);
		// scatter it into the assembly buffer.
		off := offsets[it.Layer]
		view := assembled[off : off+spec.Layers[it.Layer].Size]
		if err := it.Grad.Decompress(view); err != nil {
			rc.errCh <- err
			return
		}
		e.layerSnapshots.Inc()
		e.snapshotBytes.Add(it.Grad.Bytes())
		seen++
		if seen < nLayers {
			continue
		}
		// Full gradient assembled: update the CPU replica (§5.2).
		seen = 0
		r.mu.Lock()
		if err := r.opt.Step(r.params.Flat, assembled); err != nil {
			r.mu.Unlock()
			rc.errCh <- err
			return
		}
		r.iter = curIter
		e.replicaSteps.Inc()
		var toPersist *checkpoint.Full
		if e.fulls != nil && curIter%int64(e.opts.Plus.PersistEvery) == 0 {
			toPersist = snapshotFull(curIter, r.params.Flat, r.opt)
		}
		r.mu.Unlock()
		if toPersist != nil {
			e.fulls.handOff(toPersist)
		}
	}
}
