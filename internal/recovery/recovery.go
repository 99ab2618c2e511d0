// Package recovery rebuilds model state from checkpoints (paper §4.1
// recovery process and the parallel recovery module of §6.1).
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
// load the full, load differentials a bounded number ahead of the consumer,
// tree-merge them (the paper's pairwise merging, log n depth — LatestParallel
// only), and apply in chain order on the shared pool's optimizer kernels.
package recovery

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/compress"
	"lowdiff/internal/optim"
	"lowdiff/internal/parallel"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
	"lowdiff/internal/trace"
)

// lookAhead is how many differential loads the strict paths (Latest, ToIter,
// LatestParallel) keep in flight ahead of the consumer, and the most that are
// ever buffered. Loads wait on the store, kernels on the pool: one apply costs
// a few round trips of a remote store, so a handful of loads hides them
// whatever the core count; the tree-merge takes loads as fast as they come,
// and there 16 measured 9% ahead of 8 with nothing else moved (EXPERIMENTS.md
// "Restore path: before / after").
const lookAhead = 16

// State is a recovered training state.
type State struct {
	Iter   int64 // iterations the state reflects
	Params tensor.Vector
	Opt    optim.State
}

// Options controls recovery.
type Options struct {
	// Parallelism sizes the pool of the merge and apply stages in
	// LatestParallel (default: 4). Loads in flight do not depend on it.
	Parallelism int
	// Trace, when non-nil, records a recovery/recovery envelope over the
	// whole LatestParallel rebuild with the merge and apply spans nested
	// in it; the envelope's self time is scan plus loads.
	Trace *trace.Recorder
}

// pipeline is the one replay path; the entry points compose its stages.
type pipeline struct {
	store storage.Store
	pool  *parallel.Pool // nil: serial kernels
	trace *trace.Recorder
	// depth is the number of differential loads in flight ahead of apply.
	// At 1 a load is issued only once the one before it has succeeded,
	// which is what keeps the validating paths reproducible.
	depth    int
	attempts int           // tries per object load
	dense    tensor.Vector // dequantization scratch of the apply stage
}

// newPipeline returns a pipeline over store with a pool of the given worker
// count; below 1 takes every processor, because recovery runs when training
// does not (the result is the same at any count).
func newPipeline(store storage.Store, workers, depth int, rec *trace.Recorder) *pipeline {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool, _ := parallel.New(workers) // cannot fail: workers >= 1
	return &pipeline{store: store, pool: pool, trace: rec, depth: max(depth, 1), attempts: 1}
}

// envelope opens the recovery span the stage spans nest in.
func (p *pipeline) envelope() func() {
	return p.trace.Begin1(trace.TrackRecovery, trace.PhaseRecovery, "parallelism", int64(p.pool.Workers()))
}

// Latest recovers to the newest state reachable in the store: the latest
// full checkpoint plus the contiguous chain of differentials after it,
// applied one by one in order (Alg. 1 recovery process) — the exact tier.
// It returns the state and the number of differential records applied.
func Latest(store storage.Store) (*State, int, error) {
	return newPipeline(store, 0, lookAhead, nil).strict(math.MaxInt64, false)
}

// LatestParallel is Latest with the parallel recovery module: the chain is
// loaded through the same window, merged in a binary tree, then applied, on
// a pool of opts.Parallelism workers. Merging is gradient accumulation, so
// under Adam the result is at most accumulation-approximate, not exact (a
// chain of one differential has nothing to merge and replays exactly). The
// merge pays from two differentials up (BenchmarkRecoverChain), so no chain
// length skips it.
func LatestParallel(store storage.Store, opts Options) (*State, int, error) {
	if opts.Parallelism == 0 {
		opts.Parallelism = 4
	}
	return newPipeline(store, opts.Parallelism, lookAhead, opts.Trace).strict(math.MaxInt64, true)
}

// strict recovers to the newest state at or before target and fails on the
// first object that does not load, decode or match its name.
func (p *pipeline) strict(target int64, merge bool) (*State, int, error) {
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
	full, err := p.loadFull(*base)
	if err != nil {
		return nil, 0, fmt.Errorf("recovery: load %s: %w", base.Name, err)
	}
	// Stop the chain at the target; a batch straddling it is dropped
	// entirely (it cannot be partially applied).
	chain := m.DiffsAfter(full.Iter)
	if i := slices.IndexFunc(chain, func(e checkpoint.Entry) bool { return e.LastIter > target }); i >= 0 {
		chain = chain[:i]
	}
	// Only now, with the full read to its end: prefetch must not stretch it.
	next, wait := p.prefetch(chain, func(e checkpoint.Entry) (*checkpoint.Diff, error) {
		d, err := p.loadDiff(e)
		if err != nil {
			return nil, fmt.Errorf("recovery: load %s: %w", e.Name, err)
		}
		return d, nil
	})
	defer wait()
	if merge {
		if next, err = p.treeMerge(next); err != nil {
			return nil, 0, err
		}
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
		if f, err = checkpoint.LoadFullWith(p.store, e.Name, p.pool); err == nil || storage.IsNotExist(err) {
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
		if d, err = checkpoint.LoadDiffWith(p.store, e.Name, p.pool); err == nil || storage.IsNotExist(err) {
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
// each call waits for the oldest load and tops the window up. The caller
// runs wait before it returns, on every path: loads in flight when the
// consumer stops are finished, and none outlives the recovery.
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
		issue()
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
	return next, wg.Wait
}

// treeMerge drains next and merges adjacent differentials pairwise, round
// by round, until no adjacent pair (same kind, contiguous ranges) is left; a
// round's pairs merge concurrently, one per pool shard. Gradient merging is
// gradient accumulation; state-delta merging is exact addition. The pairing
// depends only on the chain and Merge only on its inputs: so does the result.
func (p *pipeline) treeMerge(next source) (source, error) {
	var cur []*checkpoint.Diff
	for d, err := next(); d != nil || err != nil; d, err = next() {
		if err != nil {
			return nil, err
		}
		cur = append(cur, d)
	}
	defer p.trace.Begin1(trace.TrackRecovery, trace.PhaseMerge, "diffs", int64(len(cur)))()
	pairs, _ := parallel.NewWithChunk(p.pool.Workers(), 1) // the pool's workers over a grid of pairs
	for {
		var lefts []int // where in cur each of the round's pairs starts
		for i := 0; i+1 < len(cur); i++ {
			if cur[i].Kind == cur[i+1].Kind && cur[i].LastIter+1 == cur[i+1].FirstIter {
				lefts = append(lefts, i)
				i++
			}
		}
		if len(lefts) == 0 {
			return fromSlice(cur), nil
		}
		errs := make([]error, len(lefts))
		pairs.ForEach(len(lefts), func(j, _, _ int) {
			a, b := cur[lefts[j]], cur[lefts[j]+1]
			payload, err := compress.Merge(a.Payload, b.Payload)
			// The merged record takes the left slot; the right one empties.
			cur[lefts[j]], cur[lefts[j]+1], errs[j] = &checkpoint.Diff{
				Kind: a.Kind, FirstIter: a.FirstIter, LastIter: b.LastIter,
				Count: a.Count + b.Count, Payload: payload,
			}, nil, err
		})
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		cur = slices.DeleteFunc(cur, func(d *checkpoint.Diff) bool { return d == nil })
	}
}

// replay is the in-order apply stage, the one replay loop. The full's
// parameter and moment buffers become the optimizer's and then the returned
// State's without a copy, so the caller must own the full (have decoded or
// copied it) and not use it afterwards.
func (p *pipeline) replay(full *checkpoint.Full, next source) (*State, error) {
	params := full.Params
	o, err := optim.Adopt(full.Opt, len(params))
	if err != nil {
		return nil, err
	}
	iter := full.Iter
	for {
		d, err := next()
		if err != nil {
			return nil, err
		}
		if d == nil {
			// The optimizer is private to this call: its state moves out.
			return &State{Iter: iter, Params: params, Opt: o.Detach()}, nil
		}
		if d.FirstIter != iter+1 {
			return nil, fmt.Errorf("recovery: differential [%d,%d] does not continue from iteration %d",
				d.FirstIter, d.LastIter, iter)
		}
		done := p.trace.Begin1(trace.TrackRecovery, trace.PhaseApply, "iter", d.LastIter)
		err = p.apply(o, params, d)
		done()
		if err != nil {
			return nil, err
		}
		iter = d.LastIter
	}
}

// apply applies one differential checkpoint to (o, params).
func (p *pipeline) apply(o optim.Optimizer, params tensor.Vector, d *checkpoint.Diff) error {
	if err := d.Validate(); err != nil {
		return err
	}
	switch c := d.Payload; d.Kind {
	case checkpoint.KindGradient:
		if c.Idx != nil {
			return o.StepSparseWith(p.pool, params, c.Idx, c.Vals)
		}
		if len(c.Q) == 0 {
			return o.StepWith(p.pool, params, c.Vals)
		}
		if len(p.dense) != len(params) {
			p.dense = tensor.New(len(params))
		}
		if err := c.DecompressWith(p.pool, p.dense); err != nil {
			return err
		}
		return o.StepWith(p.pool, params, p.dense)
	case checkpoint.KindStateDelta:
		return c.AddIntoWith(p.pool, params)
	default:
		return fmt.Errorf("recovery: unknown diff kind %v", d.Kind)
	}
}

// Replay applies an explicit list of differentials to a full checkpoint
// (building block for custom recovery flows). The full is copied in, once:
// callers keep using it.
func Replay(full *checkpoint.Full, diffs []*checkpoint.Diff) (*State, error) {
	own := &checkpoint.Full{Iter: full.Iter, Params: full.Params.Clone(), Opt: full.Opt.Clone()}
	return newPipeline(nil, 0, 0, nil).replay(own, fromSlice(diffs))
}
