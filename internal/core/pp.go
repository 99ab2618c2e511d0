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

// Pipeline-parallel LowDiff (§6): the model's layers are partitioned into
// contiguous stages, each owned by one rank goroutine that computes,
// compresses, and applies gradients for its slice only. LowDiff's reuse
// works unchanged (the paper's VGG16-PP result and stated future work):
// each stage's compressed slice gradient streams to a coordinator that
// merges the disjoint stage parts into one differential record per
// iteration, and the standard recovery replay reproduces the per-stage
// updates bit-exactly.

// StageRange is one stage's contiguous parameter interval.
type StageRange struct {
	FirstLayer, LastLayer int // inclusive layer indices
	Offset, Size          int // flat parameter interval
}

// PartitionStages splits the spec's layers into n contiguous groups,
// greedily balanced by parameter count.
func PartitionStages(spec model.Spec, n int) ([]StageRange, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n < 1 || n > len(spec.Layers) {
		return nil, fmt.Errorf("core: %d stages for %d layers", n, len(spec.Layers))
	}
	total := spec.NumParams()
	perStage := float64(total) / float64(n)
	offsets := spec.LayerOffsets()
	out := make([]StageRange, 0, n)
	startLayer := 0
	acc := 0
	for l, layer := range spec.Layers {
		acc += layer.Size
		remainingLayers := len(spec.Layers) - l - 1
		remainingStages := n - len(out) - 1
		// Close the stage when it reached its share, but always leave at
		// least one layer per remaining stage.
		if (float64(acc) >= perStage && remainingLayers >= remainingStages) || remainingLayers < remainingStages+1 {
			if len(out) == n-1 {
				continue // last stage takes everything left
			}
			out = append(out, StageRange{
				FirstLayer: startLayer, LastLayer: l,
				Offset: offsets[startLayer], Size: acc,
			})
			startLayer = l + 1
			acc = 0
		}
	}
	out = append(out, StageRange{
		FirstLayer: startLayer, LastLayer: len(spec.Layers) - 1,
		Offset: offsets[startLayer], Size: total - offsets[startLayer],
	})
	if len(out) != n {
		return nil, fmt.Errorf("core: partition produced %d stages, want %d", len(out), n)
	}
	return out, nil
}

// initPP validates the pipeline-parallel options and wires the ppTopology /
// mergeSnapshotter pair.
func (e *Engine) initPP() error {
	opts := e.opts
	stages, err := PartitionStages(opts.Spec, opts.PP.Stages)
	if err != nil {
		return err
	}
	if err := validateChain(opts); err != nil {
		return err
	}
	group, err := comm.NewGroupPooled(opts.PP.Stages, e.pool)
	if err != nil {
		return err
	}
	e.group = group
	e.stages = stages
	p := model.NewParams(opts.Spec)
	p.InitUniform(opts.Seed + 1)
	e.params = []*model.Params{p} // the logical global model
	for s, st := range stages {
		o, err := newOptimizer(opts, st.Size)
		if err != nil {
			return err
		}
		e.opts2 = append(e.opts2, o)
		c, err := compress.NewPooled(opts.Codec, opts.Rho, opts.Seed+uint64(s), e.pool)
		if err != nil {
			return err
		}
		e.comps = append(e.comps, c)
	}
	if opts.Store != nil && !opts.DisableDiffs {
		if err := e.newWriter(checkpoint.KindGradient); err != nil {
			return err
		}
	}
	merge := &mergeSnapshotter{e: e, sink: chainSink{e: e}}
	e.tag = "pp"
	e.topo = &ppTopology{e: e, merge: merge}
	e.snap = merge
	return nil
}

func assembleOptState(opts2 []optim.Optimizer, stages []StageRange, total int) (optim.State, error) {
	first := opts2[0].Snapshot()
	global := optim.State{
		Name:    first.Name,
		Step:    first.Step,
		Scalars: first.Scalars,
		Slots:   map[string][]float32{},
	}
	slotNames := first.SlotNames()
	for _, k := range slotNames {
		global.Slots[k] = make([]float32, total)
	}
	for s, o := range opts2 {
		st := o.Snapshot()
		if st.Name != first.Name || st.Step != first.Step {
			return optim.State{}, fmt.Errorf("core: stage %d optimizer state mismatch", s)
		}
		for _, k := range slotNames {
			slice, ok := st.Slots[k]
			if !ok || len(slice) != stages[s].Size {
				return optim.State{}, fmt.Errorf("core: stage %d slot %q shape mismatch", s, k)
			}
			copy(global.Slots[k][stages[s].Offset:stages[s].Offset+stages[s].Size], slice)
		}
	}
	return global, nil
}

// splitOptState is assembleOptState's inverse: it slices a recovered global
// optimizer state into per-stage states so resume can seed the per-stage
// optimizers from a global checkpoint.
func splitOptState(global optim.State, stages []StageRange) ([]optim.State, error) {
	out := make([]optim.State, len(stages))
	slotNames := global.SlotNames()
	scalarNames := global.ScalarNames()
	for s, st := range stages {
		part := optim.State{
			Name:    global.Name,
			Step:    global.Step,
			Scalars: make(map[string]float64, len(global.Scalars)),
			Slots:   make(map[string][]float32, len(global.Slots)),
		}
		for _, k := range scalarNames {
			part.Scalars[k] = global.Scalars[k]
		}
		for _, k := range slotNames {
			v := global.Slots[k]
			if st.Offset+st.Size > len(v) {
				return nil, fmt.Errorf("core: split slot %q: length %d shorter than stage interval [%d,%d)",
					k, len(v), st.Offset, st.Offset+st.Size)
			}
			part.Slots[k] = append([]float32(nil), v[st.Offset:st.Offset+st.Size]...)
		}
		out[s] = part
	}
	return out, nil
}

// ppTopology runs one rank goroutine per pipeline stage over disjoint
// slices of the single logical model.
type ppTopology struct {
	e     *Engine
	merge *mergeSnapshotter
}

func (p *ppTopology) ranks() int      { return p.e.opts.PP.Stages }
func (p *ppTopology) rankKey() string { return "stages" }
func (p *ppTopology) begin(*runCtx)   {}
func (p *ppTopology) end(*runCtx)     {}

func (p *ppTopology) registerMetrics(reg *obs.Registry) {
	e := p.e
	reg.FuncGauge("pp.iter", func() float64 { return float64(e.iter) })
	reg.FuncGauge("pp.stages", func() float64 { return float64(e.opts.PP.Stages) })
}

func (p *ppTopology) newRank(rc *runCtx, s int) rankRunner {
	e := p.e
	st := e.stages[s]
	return &ppRank{
		e:       e,
		merge:   p.merge,
		s:       s,
		st:      st,
		slice:   e.params[0].Flat[st.Offset : st.Offset+st.Size],
		g:       tensor.New(st.Size),
		offsets: e.opts.Spec.LayerOffsets(),
	}
}

// ppRank is one pipeline stage's per-iteration state.
type ppRank struct {
	e       *Engine
	merge   *mergeSnapshotter
	s       int
	st      StageRange
	slice   tensor.Vector
	g       tensor.Vector
	offsets []int
}

func (r *ppRank) step(rc *runCtx, t int64) error {
	e, s, st := r.e, r.s, r.st
	tr := e.trace0(s)
	iterDone := tr.Begin1(trace.TrackTrain, trace.PhaseIteration, "iter", t)
	if s == 0 {
		e.live.Store(t)
	}
	// Backward for this stage's layers (reverse order).
	computeDone := tr.Begin1(trace.TrackTrain, trace.PhaseCompute, "iter", t)
	for l := st.LastLayer; l >= st.FirstLayer; l-- {
		lo := r.offsets[l] - st.Offset
		sz := e.opts.Spec.Layers[l].Size
		if err := e.oracle.LayerGrad(e.params[0].Flat, 0, int(t), l, r.g[lo:lo+sz]); err != nil {
			return err
		}
	}
	computeDone()
	// Compress the stage slice; indices are slice-local and
	// shifted to global coordinates for the assembled diff.
	compressDone := tr.Begin1(trace.TrackTrain, trace.PhaseCompress, "iter", t)
	local, err := e.comps[s].Compress(r.g)
	compressDone()
	if err != nil {
		return err
	}
	if r.merge.partCh != nil {
		globalPart := shiftToGlobal(local, st.Offset, e.opts.Spec.NumParams())
		putDone := tr.Begin1(trace.TrackTrain, trace.PhaseQueueWait, "iter", t)
		r.merge.partCh <- ppPart{iter: t, c: globalPart}
		putDone()
	}
	// Update this stage's parameters only.
	applyDone := tr.Begin1(trace.TrackTrain, trace.PhaseApply, "iter", t)
	if err := applyCompressed(e.opts2[s], r.slice, local); err != nil {
		return err
	}
	applyDone()
	// Pipeline flush: stages align at iteration boundaries.
	if err := e.group.Barrier(s); err != nil {
		return err
	}
	iterDone()
	// Stage 0 coordinates the periodic full checkpoint, taken at the
	// aligned boundary. The iteration envelope is already closed, so the
	// snapshot lands between envelopes and the profiler charges it to this
	// step's window as a stall; the write goes to the engine's full
	// persister, so the barrier below releases the stages while the store
	// I/O drains off the critical path.
	if s == 0 && e.opts.Store != nil && t%int64(e.opts.FullEvery) == 0 {
		snapDone := tr.Begin1(trace.TrackSnapshot, trace.PhaseSnapshot, "iter", t)
		gst, err := e.GlobalOptState()
		if err != nil {
			return err
		}
		full := &checkpoint.Full{Iter: t, Params: e.params[0].Flat.Clone(), Opt: gst}
		snapDone()
		e.fulls.handOff(full)
	}
	// Second barrier: no stage starts the next iteration while
	// the full snapshot is being taken.
	return e.group.Barrier(s)
}

// ppPart is one stage's contribution to an iteration's differential.
type ppPart struct {
	iter int64
	c    *compress.Compressed
}

// mergeSnapshotter is the pipeline-parallel checkpointing coordinator:
// stage parts flow in, disjoint slices are merged into one differential per
// iteration, and batches cut at full-checkpoint boundaries.
type mergeSnapshotter struct {
	e      *Engine
	sink   chainSink
	partCh chan ppPart
	wg     sync.WaitGroup
}

func (s *mergeSnapshotter) begin(rc *runCtx) error {
	e := s.e
	if e.writer == nil {
		return nil
	}
	s.partCh = make(chan ppPart, e.opts.PP.Stages*2)
	s.wg.Add(1)
	go s.coordinate(rc)
	return nil
}

// initialFull persists the initial global state once, synchronously (no
// rank is training yet, so there is nothing to overlap with).
func (s *mergeSnapshotter) initialFull(rc *runCtx) error {
	e := s.e
	if e.opts.Store == nil {
		return nil
	}
	st, err := e.GlobalOptState()
	if err != nil {
		return err
	}
	return e.fulls.persistInline(&checkpoint.Full{Iter: 0, Params: e.params[0].Flat.Clone(), Opt: st})
}

func (s *mergeSnapshotter) end(rc *runCtx) {
	if s.partCh != nil {
		close(s.partCh)
		s.wg.Wait()
	}
}

func (s *mergeSnapshotter) runEndFields(stats *RunStats) map[string]any {
	return map[string]any{
		"iter": s.e.iter, "diff_writes": stats.DiffWrites, "full_writes": stats.FullWrites,
	}
}

func (s *mergeSnapshotter) registerMetrics(reg *obs.Registry) {
	e := s.e
	reg.FuncCounter("pp.full_writes", e.fullWrites.Value)
	e.registerWriterMetrics(reg)
}

// coordinate merges stage parts into per-iteration differentials and feeds
// them to the chain sink.
func (s *mergeSnapshotter) coordinate(rc *runCtx) {
	defer s.wg.Done()
	e := s.e
	pending := map[int64][]*compress.Compressed{}
	for p := range s.partCh {
		if s.sink.broken {
			continue
		}
		pending[p.iter] = append(pending[p.iter], p.c)
		if len(pending[p.iter]) < e.opts.PP.Stages {
			continue
		}
		mergeDone := e.opts.Trace.Begin2(trace.TrackCheckpoint, trace.PhaseMerge,
			"iter", p.iter, "count", int64(len(pending[p.iter])))
		merged, err := compress.MergeWith(e.pool, pending[p.iter]...)
		mergeDone()
		delete(pending, p.iter)
		if err != nil {
			rc.errCh <- err
			s.sink.broken = true
			continue
		}
		s.sink.add(rc, p.iter, merged)
	}
}

// shiftToGlobal rebases a slice-local compressed gradient into global
// coordinates (dense payloads become sparse over the slice interval).
func shiftToGlobal(c *compress.Compressed, offset, total int) *compress.Compressed {
	out := &compress.Compressed{Codec: c.Codec, N: total}
	if c.Idx != nil {
		out.Idx = make([]int32, len(c.Idx))
		for i, j := range c.Idx {
			out.Idx[i] = j + int32(offset)
		}
		out.Vals = append([]float32(nil), c.Vals...)
		return out
	}
	// Dense slice payload: indices are the whole interval.
	out.Idx = make([]int32, len(c.Vals))
	for i := range c.Vals {
		out.Idx[i] = int32(offset + i)
	}
	out.Vals = append([]float32(nil), c.Vals...)
	return out
}
