// Package recovery rebuilds model state from checkpoints (paper §4.1
// recovery process).
//
// Two differential semantics are supported, matching the checkpoint kinds:
//
//   - KindGradient (LowDiff): each differential carries a (batched)
//     compressed gradient; recovery restores the optimizer from the full
//     checkpoint and replays steps. Unbatched replay reproduces the live
//     state bit-exactly for any optimizer. A batch of b accumulated
//     gradients is applied as one step: exact for linear rules (plain SGD),
//     the standard gradient-accumulation approximation for Adam.
//   - KindStateDelta (Naïve DC / Check-N-Run): differentials are additive
//     parameter deltas; recovery adds them to the parameters. The optimizer
//     moments remain those of the full checkpoint.
//
// Every entry point runs one pipeline (DESIGN.md "Recovery pipeline"): scan,
// load the full, load differentials a bounded number ahead of the consumer
// (on the strict paths the first of them beside the full's load), and
// apply them in chain order, consecutive sparse gradients a time-tiled run
// at a time, its chunks shared among the pipeline's workers. There is one
// tier: every differential is replayed, never merged with its neighbours as
// the paper's parallel recovery module (§6.1) does, so the only
// approximation left is the one a batched record (Count > 1) under Adam
// already carries.
package recovery

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
	"lowdiff/internal/trace"
)

// lookAhead is how many differential loads the strict paths (Latest, ToIter,
// LatestParallel) keep in flight ahead of the consumer, from scan time on
// (while the full loads), the most that are ever buffered, and so the
// longest run replay tiles. Loads wait on the store, kernels on the cores:
// one apply costs a few round trips of a remote store, so a handful of
// loads hides them whatever the core count. 16 is
// set by replay: runs of 16 tiled on the AVX kernel measured 21-33% ahead
// of stepping them one by one; runs of 8 and 32 read within the noise of 16
// at two workers, and 8 about 7% behind at one (BenchmarkSparseReplay,
// EXPERIMENTS.md "Eight-lane AVX Adam kernel").
const lookAhead = 16

// State is a recovered training state.
type State struct {
	Iter   int64 // iterations the state reflects
	Params tensor.Vector
	Opt    optim.State
}

// Options controls recovery.
type Options struct {
	// Parallelism is how many goroutines share the chunks of each tiled
	// replay run of LatestParallel; 0 takes every processor, as Latest
	// does. The recovered state and the loads in flight do not depend on it.
	Parallelism int
	// Trace, when non-nil, records a recovery/recovery envelope over the
	// whole LatestParallel rebuild with its apply spans nested in it; the
	// envelope's self time is scan plus loads.
	Trace *trace.Recorder
}

// pipeline is the one replay path; the entry points compose its stages.
type pipeline struct {
	store   storage.Store
	workers int // goroutines per tiled run; at most 1 is serial
	trace   *trace.Recorder
	// depth is the number of differential loads in flight ahead of apply,
	// and the longest run replay applies in one tiled pass. At 1 a load is
	// issued only once the one before it has succeeded, which is what keeps
	// the validating paths reproducible.
	depth    int
	attempts int // tries per object load
}

// newPipeline returns a pipeline over store that tiles on the given worker
// count; below 1 takes every processor, because recovery runs when training
// does not (the result is the same at any count).
func newPipeline(store storage.Store, workers, depth int, rec *trace.Recorder) *pipeline {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &pipeline{store: store, workers: workers, trace: rec, depth: max(depth, 1), attempts: 1}
}

// envelope opens the recovery span the stage spans nest in.
func (p *pipeline) envelope() func() {
	return p.trace.Begin1(trace.TrackRecovery, trace.PhaseRecovery, "parallelism", int64(p.workers))
}

// Latest recovers to the newest state reachable in the store: the latest
// full checkpoint plus the contiguous chain of differentials after it,
// applied in order (Alg. 1 recovery process) on every processor. It returns
// the state and the number of differential records applied.
func Latest(store storage.Store) (*State, int, error) {
	return LatestParallel(store, Options{})
}

// LatestParallel is Latest on opts.Parallelism workers, recording into
// opts.Trace. It replays the chain exactly as Latest does, bit for bit at
// any worker count: the parallelism is in the tiled replay's chunks. It
// does not merge the chain pairwise first, as the paper's parallel recovery
// module does: under Adam that is only accumulation-approximate, and
// time-tiled replay recovers a long chain at least as fast
// (BenchmarkRecoverChain, DESIGN.md §13).
func LatestParallel(store storage.Store, opts Options) (*State, int, error) {
	return newPipeline(store, opts.Parallelism, lookAhead, opts.Trace).strict(math.MaxInt64)
}

// strict recovers to the newest state at or before target and fails on the
// first object that does not load, decode or match its name.
func (p *pipeline) strict(target int64) (*State, int, error) {
	defer p.envelope()()
	m, err := checkpoint.Scan(p.store)
	if err != nil {
		return nil, 0, err
	}
	var base *checkpoint.Entry
	for i := range m.Fulls {
		if m.Fulls[i].Iter <= target {
			base = &m.Fulls[i]
		}
	}
	if base == nil {
		if target == math.MaxInt64 {
			return nil, 0, fmt.Errorf("recovery: no full checkpoint in store")
		}
		return nil, 0, fmt.Errorf("recovery: no full checkpoint at or before iteration %d", target)
	}
	// Stop the chain at the target; a batch straddling it is dropped
	// entirely (it cannot be partially applied). loadFull holds the full to
	// its name, so the chain after base.Iter is the chain after the full.
	chain := m.DiffsAfter(base.Iter)
	if i := slices.IndexFunc(chain, func(e checkpoint.Entry) bool { return e.LastIter > target }); i >= 0 {
		chain = chain[:i]
	}
	// Open the window before the full loads: the first differentials'
	// round trips and decodes overlap the full's read. If the full fails,
	// wait drains them and their results, errors included, are dropped.
	next, wait := p.prefetch(chain, func(e checkpoint.Entry) (*checkpoint.Diff, error) {
		d, err := p.loadDiff(e)
		if err != nil {
			return nil, fmt.Errorf("recovery: load %s: %w", e.Name, err)
		}
		return d, nil
	})
	defer wait()
	full, err := p.loadFull(*base)
	if err != nil {
		return nil, 0, fmt.Errorf("recovery: load %s: %w", base.Name, err)
	}
	st, err := p.replay(full, next)
	if err != nil {
		return nil, 0, err
	}
	return st, len(chain), nil
}

// source yields a chain's differentials in order; (nil, nil) ends it.
type source func() (*checkpoint.Diff, error)

func fromSlice(diffs []*checkpoint.Diff) source {
	i := -1
	return func() (*checkpoint.Diff, error) {
		if i++; i < len(diffs) {
			return diffs[i], nil
		}
		return nil, nil
	}
}

// loadFull loads a full checkpoint, retrying transient read faults up to
// p.attempts, and checks it against its name: a decodable object of another
// iteration (a misplaced copy) would replay the wrong state — damage, not data.
func (p *pipeline) loadFull(e checkpoint.Entry) (f *checkpoint.Full, err error) {
	for i := 0; i < p.attempts; i++ {
		if f, err = checkpoint.LoadFull(p.store, e.Name); err == nil || storage.IsNotExist(err) {
			break
		}
	}
	if err == nil && f.Iter != e.Iter {
		return nil, fmt.Errorf("recovery: %s decodes to iteration %d, name says %d", e.Name, f.Iter, e.Iter)
	}
	return f, err
}

// loadDiff is loadFull for a differential: a payload of another range than
// its name claims would step the optimizer with the wrong gradient.
func (p *pipeline) loadDiff(e checkpoint.Entry) (d *checkpoint.Diff, err error) {
	for i := 0; i < p.attempts; i++ {
		if d, err = checkpoint.LoadDiff(p.store, e.Name); err == nil || storage.IsNotExist(err) {
			break
		}
	}
	if err == nil && (d.FirstIter != e.FirstIter || d.LastIter != e.LastIter) {
		return nil, fmt.Errorf("recovery: %s decodes to range [%d,%d], name says [%d,%d]",
			e.Name, d.FirstIter, d.LastIter, e.FirstIter, e.LastIter)
	}
	return d, err
}

// prefetch returns a source over chain's differentials that keeps up to
// p.depth loads (Open, read, CRC, decode) in flight, issued in chain order:
// the first p.depth are issued before prefetch returns, and each call waits
// for the oldest load and tops the window up. The caller runs wait before
// it returns, on every path: loads in flight when the consumer stops are
// finished, and none outlives the recovery.
func (p *pipeline) prefetch(chain []checkpoint.Entry, load func(checkpoint.Entry) (*checkpoint.Diff, error)) (next source, wait func()) {
	type loaded struct {
		d   *checkpoint.Diff
		err error
	}
	var wg sync.WaitGroup
	window := make([]chan loaded, 0, p.depth) // oldest first
	issued := 0
	issue := func() {
		for ; len(window) < p.depth && issued < len(chain); issued++ {
			e, res := chain[issued], make(chan loaded, 1)
			window = append(window, res)
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := load(e)
				res <- loaded{d, err}
			}()
		}
	}
	next = func() (*checkpoint.Diff, error) {
		if len(window) == 0 {
			return nil, nil
		}
		l := <-window[0]
		window = window[1:]
		if l.err == nil {
			// Refill now, so that even at depth 1 the next load runs under
			// the apply of l.d — but never past a damaged object.
			issue()
		}
		return l.d, l.err
	}
	issue()
	return next, wg.Wait
}

// replay is the in-order apply stage, the one replay loop. Consecutive
// sparse gradient differentials are gathered into runs of up to p.depth —
// what the load window holds — and each run is one time-tiled optimizer pass
// (optim.StepSparseRun), bit-identical to applying them one by one; any other
// differential ends the run and is applied on its own. Every differential is
// checked (continuity, Validate) as it arrives, before the run holding it
// touches any state. The full's parameter and moment buffers become the
// optimizer's and then the returned State's without a copy, so the caller
// must own the full (have decoded or copied it) and not use it afterwards.
func (p *pipeline) replay(full *checkpoint.Full, next source) (*State, error) {
	params := full.Params
	o, err := optim.Adopt(full.Opt, len(params))
	if err != nil {
		return nil, err
	}
	iter := full.Iter
	var run []optim.Sparse
	flush := func() error {
		if len(run) == 0 {
			return nil
		}
		done := p.trace.Begin1(trace.TrackRecovery, trace.PhaseApply, "iter", iter)
		err := o.StepSparseRun(p.workers, params, run)
		done()
		clear(run) // drop the payloads: the run's differentials are applied
		run = run[:0]
		return err
	}
	for {
		d, err := next()
		if err != nil {
			return nil, err
		}
		if d == nil {
			if err := flush(); err != nil {
				return nil, err
			}
			// The optimizer is private to this call: its state moves out.
			return &State{Iter: iter, Params: params, Opt: o.Detach()}, nil
		}
		if d.FirstIter != iter+1 {
			return nil, fmt.Errorf("recovery: differential [%d,%d] does not continue from iteration %d",
				d.FirstIter, d.LastIter, iter)
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		if c := d.Payload; d.Kind == checkpoint.KindGradient && c.Idx != nil {
			run = append(run, optim.Sparse{Idx: c.Idx, Vals: c.Vals})
			iter = d.LastIter
			if len(run) >= p.depth {
				err = flush()
			}
		} else if err = flush(); err == nil {
			done := p.trace.Begin1(trace.TrackRecovery, trace.PhaseApply, "iter", d.LastIter)
			err = p.apply(o, params, d)
			done()
			iter = d.LastIter
		}
		if err != nil {
			return nil, err
		}
	}
}

// apply applies one validated differential checkpoint other than a sparse
// gradient (those go through runs) to (o, params).
func (p *pipeline) apply(o optim.Optimizer, params tensor.Vector, d *checkpoint.Diff) error {
	switch c := d.Payload; d.Kind {
	case checkpoint.KindGradient:
		return o.Step(params, c.Vals)
	case checkpoint.KindStateDelta:
		return c.AddInto(params)
	default:
		return fmt.Errorf("recovery: unknown diff kind %v", d.Kind)
	}
}

// Replay applies an explicit list of differentials to a full checkpoint
// (building block for custom recovery flows). The full is copied in, once:
// callers keep using it.
func Replay(full *checkpoint.Full, diffs []*checkpoint.Diff) (*State, error) {
	own := &checkpoint.Full{Iter: full.Iter, Params: full.Params.Clone(), Opt: full.Opt.Clone()}
	return newPipeline(nil, 0, lookAhead, nil).replay(own, fromSlice(diffs))
}
