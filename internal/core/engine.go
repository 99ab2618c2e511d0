package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/comm"
	"lowdiff/internal/compress"
	"lowdiff/internal/grad"
	"lowdiff/internal/metrics"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/optim"
	"lowdiff/internal/parallel"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
	"lowdiff/internal/trace"
)

// Options configures a functional LowDiff training engine. The zero strategy
// is data-parallel LowDiff (§4); setting Plus or PP selects the LowDiff+
// replica strategy (§5) or pipeline-parallel stage checkpointing (§6) on the
// same engine core.
type Options struct {
	Spec    model.Spec
	Workers int // data-parallel workers (>= 1); ignored under PP

	// Optimizer selects "adam" (default) or "sgd"; LR 0 uses the
	// optimizer's default learning rate.
	Optimizer string
	LR        float64
	Momentum  float64 // sgd only

	// Codec selects the gradient compressor: "topk" (default), "randk",
	// or "identity". Rho is the sparsification ratio (default 0.01).
	// The Plus strategy ignores both: LowDiff+ trains dense and offloads
	// uncompressed layer snapshots.
	Codec string
	Rho   float64
	// ErrorFeedback wraps each worker's compressor with an error-feedback
	// residual memory, the standard companion of aggressive sparsification
	// (checkpointing is unaffected: the synchronized gradient already
	// includes the fed-back residual). Data-parallel LowDiff only.
	ErrorFeedback bool

	// Store receives checkpoints; nil disables checkpointing entirely.
	Store storage.Store
	// FullEvery takes a full checkpoint every so many iterations
	// (default 50). Differentials are always captured per iteration —
	// recovery needs every gradient — so a lower differential *write*
	// frequency is expressed through BatchSize, which accumulates that
	// many gradients per store write. DisableDiffs turns differential
	// checkpoints off, leaving CheckFreq-style full-only checkpointing.
	// The Plus strategy ignores all three (it persists replica fulls on
	// Plus.PersistEvery instead).
	FullEvery    int
	BatchSize    int // batched gradient write size (default 1)
	DisableDiffs bool
	QueueCap     int // reusing queue bound (default 16; Plus: 4× layers, min 8)
	// RetainFulls keeps only the newest N full checkpoints, garbage
	// collecting older fulls and the differentials they obsolete after
	// each full persist (0 keeps everything).
	RetainFulls int

	// NaiveDC switches the differential source to Check-N-Run semantics:
	// instead of reusing the synchronized gradient, the trainer computes
	// the model-state delta after each update, compresses it (the paper's
	// Challenge 1 computation cost, incurred for real here), and
	// checkpoints it as a state delta. Recovery adds deltas to the
	// parameters; the optimizer moments stay those of the full checkpoint.
	NaiveDC bool

	// FaultTolerance, when non-nil, keeps the engine alive through
	// storage faults: persist operations retry with bounded deterministic
	// backoff, repeated differential-write failures fall back to a full
	// checkpoint (a fresh chain base), and persistent full-checkpoint
	// failures degrade health (see Engine.Health) while training
	// continues. Nil preserves fail-fast semantics: the first storage
	// error aborts Run.
	FaultTolerance *FaultToleranceOptions

	// Parallelism shards the dense data-plane hot loops — compression,
	// sparse merge, decompress/scatter-add, and checkpoint encode/decode —
	// across that many pool workers. 0 or 1 keeps every loop serial.
	// Results are bit-identical to serial at any setting (fixed chunk
	// grid, fixed combine order; see DESIGN.md §8), so the knob is pure
	// throughput: golden fixtures and recovery replay are unaffected.
	Parallelism int

	// Overlap replaces the strictly sequential phase chain with the
	// pipelined step schedule (DESIGN.md §11): checkpoint-plane work for
	// iteration i — queue hand-off, Naïve-DC delta compression, and the
	// partitioned full-snapshot slices — is deposited into a
	// double-buffered scheduler and dispatched during the communication
	// wave of iteration i+1 instead of stalling the step boundary.
	// Results and checkpoint bytes are bit-identical to the sequential
	// schedule (the gated slices only read state the wave leaves
	// quiescent, on the same fixed chunk grid), so golden fixtures are
	// unaffected at any worker count. DP runs the full scheduler; Plus
	// defers the H_s offload wait by one step behind a second gradient
	// buffer; PP persists boundary fulls asynchronously. The Peer
	// strategy rejects Overlap (its durability story requires the
	// synchronous boundary persist), as does NaiveDC with a stateful
	// compressor (randk or ErrorFeedback).
	Overlap bool

	Seed  uint64
	Noise float64 // per-worker gradient noise half-width (default 0.05)

	// Trace, when non-nil, records an execution timeline through the
	// canonical phase taxonomy (trace.Phase*: compute, compress,
	// allgather, apply, snapshot, merge, diff/full writes, queue waits),
	// exportable as a Chrome trace or span JSONL and analyzable with
	// trace.BuildProfile / cmd/lowdifftrace. Worker/stage 0 records the
	// train-track spans; the checkpoint, snapshot, and persist tracks are
	// recorded by their owning goroutines. Nil disables tracing with zero
	// overhead. When Metrics is also set, recorded spans additionally
	// feed trace.phase_seconds histograms and the trace.dropped counter.
	Trace *trace.Recorder

	// Metrics, when non-nil, registers the engine's live instruments
	// (engine.*, ckpt.*, queue.*, fault.*, plus.*, pp.* depending on the
	// strategy) for export through the obs endpoints; the registrations
	// read the engine's existing counters, so the hot paths are untouched.
	// Nil disables registration.
	Metrics *obs.Registry
	// Events, when non-nil, receives structured run lifecycle events:
	// run start/end, iteration milestones, full/diff persists, retries,
	// fallbacks, and health-ladder transitions. Nil disables emission.
	Events *obs.EventLog

	// Plus selects the LowDiff+ strategy (§5): dense data-parallel
	// training with layer-wise gradient offload into a CPU-resident
	// replica, persisted as periodic fulls. Mutually exclusive with PP.
	Plus *PlusSpec
	// PP selects pipeline-parallel stage checkpointing (§6): PP.Stages
	// rank goroutines each own one contiguous StageRange of the model;
	// stage diffs are merged by a coordinator into one global chain.
	// Mutually exclusive with Plus.
	PP *PPSpec
	// Peer selects the peer-replicated differential strategy
	// (Checkmate-style): every worker retains the merged compressed
	// gradient it already received from the all-gather in a bounded ring
	// window, so per-iteration differentials cost zero storage writes;
	// only the periodic full checkpoints reach the store. When surviving
	// windows cannot cover the chain, the engine degrades to the storage
	// differential path (see DESIGN.md §9). Mutually exclusive with Plus
	// and PP.
	Peer *PeerSpec
}

// PlusSpec holds the LowDiff+-specific knobs of Options.
type PlusSpec struct {
	// PersistEvery persists the replica to the store every so many
	// iterations (default 10); the replica itself advances every
	// iteration regardless.
	PersistEvery int
	// SnapshotWorkers sizes the layer-snapshot offload pool P_s
	// (default 4).
	SnapshotWorkers int
}

// PPSpec holds the pipeline-parallel-specific knobs of Options.
type PPSpec struct {
	Stages int // pipeline stages (>= 1)
}

// PeerSpec holds the peer-replication-specific knobs of Options.
type PeerSpec struct {
	// Window is the per-peer differential ring depth W (default
	// FullEvery, the minimum that guarantees the window always reaches
	// back to the newest scheduled full checkpoint).
	Window int
	// Chaos, when non-nil, injects seeded peer-payload faults and
	// scheduled whole-worker crashes into the retention plane.
	Chaos *comm.ChaosConfig
}

func (o Options) withDefaults() Options {
	if o.Optimizer == "" {
		o.Optimizer = "adam"
	}
	if o.Codec == "" {
		o.Codec = "topk"
	}
	if o.Rho == 0 {
		o.Rho = 0.01
	}
	if o.FullEvery == 0 {
		o.FullEvery = 50
	}
	if o.BatchSize == 0 {
		o.BatchSize = 1
	}
	if o.QueueCap == 0 {
		if o.Plus != nil {
			// LowDiff+ queues per-layer snapshots, so the bound scales
			// with the model's layer count (§5.2).
			o.QueueCap = 4 * len(o.Spec.Layers)
			if o.QueueCap < 8 {
				o.QueueCap = 8
			}
		} else {
			o.QueueCap = 16
		}
	}
	if o.Noise == 0 {
		o.Noise = 0.05
	}
	if o.Plus != nil {
		ps := *o.Plus
		if ps.PersistEvery == 0 {
			ps.PersistEvery = 10
		}
		if ps.SnapshotWorkers == 0 {
			ps.SnapshotWorkers = 4
		}
		o.Plus = &ps
	}
	if o.Peer != nil {
		ps := *o.Peer
		if ps.Window == 0 {
			ps.Window = o.FullEvery
		}
		o.Peer = &ps
	}
	return o
}

// RunStats summarizes one Run call.
type RunStats struct {
	Iterations    int
	DiffWrites    int64         // store writes of differential batches
	DiffBytes     int64         // differential payload bytes persisted
	FullWrites    int64         // full checkpoints taken and handed to the persist stream (durable after Flush)
	SnapshotTime  time.Duration // trainer time spent snapshotting state
	BlockedPuts   int64         // queue back-pressure events
	QueueHighMark int64         // peak queue occupancy
	FinalLoss     float64

	// LowDiff+ strategy only.
	LayerSnapshots int64 // layer gradients applied to the replica
	SnapshotBytes  int64 // bytes offloaded to the replica
	ReplicaSteps   int64 // optimizer steps applied to the replica
}

// Engine is the unified LowDiff trainer: rank goroutines run the canonical
// step loop (gradient → compress → synchronize → apply → checkpoint
// hand-off) while a strategy-supplied Topology/Snapshotter pair decides what
// a rank is (data-parallel worker or pipeline stage) and how checkpoints
// flow (differential chain, stage merge, or CPU-resident replica).
type Engine struct {
	opts   Options
	oracle *grad.Oracle
	group  *comm.Group
	pool   *parallel.Pool // nil: serial data plane

	topo Topology
	snap Snapshotter
	rep  Replica // non-nil only under the Plus strategy
	tag  string  // event "engine" tag; "" for the data-parallel default

	params []*model.Params   // per worker (single shared entry under PP)
	opts2  []optim.Optimizer // per worker (per stage under PP)
	comps  []compress.Compressor
	stages []StageRange // PP only

	writer *BatchedWriter
	iter   int64        // completed iterations
	live   atomic.Int64 // newest iteration worker 0 has entered (live gauge)

	events     *obs.EventLog
	fulls      *fullPersister  // the one ordered full-persist stream; nil without a store
	fullsTaken metrics.Counter // fulls given to the stream (handed off or inline), across Run calls
	fullWrites metrics.Counter // full checkpoints persisted, across Run calls

	// LowDiff+ accounting (maintained by the replica snapshotter).
	layerSnapshots metrics.Counter
	snapshotBytes  metrics.Counter
	replicaSteps   metrics.Counter
	snapTimer      metrics.Timer // trainer time waiting on layer offloads

	// Fault-tolerance state (active when opts.FaultTolerance != nil).
	ft           *FaultToleranceOptions
	health       atomic.Int32 // Health ladder position
	faults       FaultStats
	needFull     atomic.Bool  // trainer should snapshot a fallback full
	lastFullIter atomic.Int64 // newest successfully persisted full (-1: none)

	// Peer-replication state (active under the Peer strategy).
	peers         *comm.Peers
	peerFallback  atomic.Bool     // storage-differential fallback engaged
	peerFallbacks metrics.Counter // peer→storage fallbacks engaged
	peerRestores  metrics.Counter // peer plane re-validated (fallback left)

	// Overlap-schedule accounting (active when opts.Overlap).
	overlapDeposits metrics.Counter // slots deposited into the step schedule
	overlapSlices   metrics.Counter // checkpoint slices dispatched in idle windows

	// FullSnapshotTimer observes snapshot (state-clone) costs.
	FullSnapshotTimer metrics.Timer
}

// NewEngine validates options and builds the engine for the selected
// strategy.
func NewEngine(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := opts.Spec.Validate(); err != nil {
		return nil, err
	}
	selected := 0
	for _, on := range []bool{opts.Plus != nil, opts.PP != nil, opts.Peer != nil} {
		if on {
			selected++
		}
	}
	if selected > 1 {
		return nil, fmt.Errorf("core: the Plus, PP, and Peer strategies are mutually exclusive")
	}
	oracle, err := grad.New(opts.Spec, opts.Seed, opts.Noise)
	if err != nil {
		return nil, err
	}
	e := &Engine{opts: opts, oracle: oracle, events: opts.Events}
	if opts.Store != nil {
		e.fulls = newFullPersister(e)
	}
	if opts.FaultTolerance != nil {
		// Copy so wiring the backoff observer never mutates the caller's
		// options struct; a caller-supplied observer still runs.
		ft := *opts.FaultTolerance
		userHook := ft.Retry.OnBackoff
		ft.Retry.OnBackoff = func(attempt int, d time.Duration) {
			e.faults.RetryBackoffs.Inc()
			if userHook != nil {
				userHook(attempt, d)
			}
		}
		e.ft = &ft
	}
	e.lastFullIter.Store(-1)
	if opts.Parallelism < 0 {
		return nil, fmt.Errorf("core: Parallelism %d must be >= 0", opts.Parallelism)
	}
	if opts.Parallelism > 1 {
		pool, err := parallel.New(opts.Parallelism)
		if err != nil {
			return nil, err
		}
		e.pool = pool
	}
	switch {
	case opts.PP != nil:
		err = e.initPP()
	case opts.Plus != nil:
		err = e.initPlus()
	case opts.Peer != nil:
		err = e.initPeer()
	default:
		err = e.initDP()
	}
	if err != nil {
		return nil, err
	}
	e.registerMetrics(opts.Metrics)
	e.wireTrace()
	return e, nil
}

// trace0 returns the engine's recorder for rank 0 and nil for every other
// rank, so step loops record exactly one train-track span set per
// iteration without per-call rank guards (a nil recorder is a no-op).
func (e *Engine) trace0(rank int) *trace.Recorder {
	if rank != 0 {
		return nil
	}
	return e.opts.Trace
}

// wireTrace bridges the recorder into the metrics registry: every
// recorded span feeds a trace.phase_seconds{track,phase} histogram, and
// the ring-buffer eviction count is exported as trace.dropped. The
// observer runs on the recording goroutine outside the recorder lock and
// is only installed when both a recorder and a registry are configured.
func (e *Engine) wireTrace() {
	rec, reg := e.opts.Trace, e.opts.Metrics
	if rec == nil || reg == nil {
		return
	}
	reg.FuncCounter("trace.dropped", rec.Dropped)
	var mu sync.Mutex
	hists := map[string]*obs.Histogram{}
	rec.SetObserver(func(ev trace.Event) {
		k := ev.Track + "\x00" + ev.Name
		mu.Lock()
		h, ok := hists[k]
		if !ok {
			h = reg.Histogram("trace.phase_seconds", obs.DefBuckets,
				obs.Label{Key: "track", Value: ev.Track},
				obs.Label{Key: "phase", Value: ev.Name})
			hists[k] = h
		}
		mu.Unlock()
		h.Observe(ev.Dur.Seconds())
	})
}

// newOptimizer builds one optimizer instance over n parameters from the
// shared optimizer options.
func newOptimizer(opts Options, n int) (optim.Optimizer, error) {
	switch opts.Optimizer {
	case "adam":
		return optim.NewAdam(n, optim.AdamConfig{LR: opts.LR}), nil
	case "sgd":
		return optim.NewSGD(n, optim.SGDConfig{LR: opts.LR, Momentum: opts.Momentum}), nil
	default:
		return nil, fmt.Errorf("core: unknown optimizer %q", opts.Optimizer)
	}
}

// newWriter builds the batched differential writer shared by the chain and
// merge snapshotters, wiring the fault-tolerance retry policy when set.
func (e *Engine) newWriter(kind checkpoint.DiffKind) error {
	w, err := NewBatchedWriter(e.opts.Store, e.opts.BatchSize, kind)
	if err != nil {
		return err
	}
	if e.ft != nil {
		retry := e.ft.Retry
		w.Retry = &retry
		w.OnRetry = func(attempt int, err error) {
			e.faults.DiffRetries.Inc()
			e.events.Emit("ckpt.diff.retry", e.fields(map[string]any{"attempt": attempt, "error": err.Error()}))
		}
	}
	w.Events = e.opts.Events
	w.Pool = e.pool
	w.Trace = e.opts.Trace
	e.writer = w
	return nil
}

// fields tags an event payload with the strategy's engine tag ("" for the
// data-parallel default, whose historical payloads are untagged).
func (e *Engine) fields(kv map[string]any) map[string]any {
	if e.tag != "" {
		kv["engine"] = e.tag
	}
	return kv
}

// registerMetrics exposes the engine's counters through an obs registry as
// func-backed instruments: scrapes read the live values the engine already
// maintains, so instrumentation adds nothing to the training hot path. The
// exported names are strategy-owned (engine.*/ckpt.*/fault.* for
// data-parallel, plus.* for LowDiff+, pp.* for pipeline-parallel).
func (e *Engine) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	if p := e.pool; p != nil {
		reg.FuncGauge("parallel.workers", func() float64 { return float64(p.Workers()) })
		reg.FuncCounter("parallel.dispatches", p.Dispatches.Value)
		reg.FuncCounter("parallel.inline", p.Inline.Value)
		reg.FuncCounter("parallel.shards", p.Shards.Value)
	}
	e.topo.registerMetrics(reg)
	e.snap.registerMetrics(reg)
}

// registerQueueMetrics re-registers the queue instruments for the current
// Run's queue (a fresh ReusingQueue is built per Run, so func-backed
// registrations are replaced to read the live one).
func (e *Engine) registerQueueMetrics(q *ReusingQueue) {
	reg := e.opts.Metrics
	if reg == nil || q == nil {
		return
	}
	reg.FuncGauge("queue.depth", func() float64 { return float64(q.Depth.Value()) })
	reg.FuncGauge("queue.depth_high", func() float64 { return float64(q.Depth.High()) })
	reg.FuncGauge("queue.cap", func() float64 { return float64(q.Cap()) })
	reg.FuncCounter("queue.puts", q.Puts.Value)
	reg.FuncCounter("queue.gets", q.Gets.Value)
	reg.FuncCounter("queue.blocked_puts", q.BlockedPuts.Value)
}

// Iter returns the number of completed iterations.
func (e *Engine) Iter() int64 { return e.iter }

// Params returns worker 0's live parameter vector (the single shared vector
// under PP; do not mutate).
func (e *Engine) Params() tensor.Vector { return e.params[0].Flat }

// OptState snapshots worker 0's optimizer state. Under PP this is stage 0's
// state only; use GlobalOptState for the assembled global view.
func (e *Engine) OptState() optim.State { return e.opts2[0].Snapshot() }

// GlobalOptState returns the optimizer state a full checkpoint stores. Under
// PP the per-stage states are assembled, slice slots concatenated in stage
// order (all stages must share the optimizer type and step count); every
// other strategy replicates the state, so worker 0's is the global one.
func (e *Engine) GlobalOptState() (optim.State, error) {
	if e.opts.PP == nil {
		return e.OptState(), nil
	}
	return assembleOptState(e.opts2, e.stages, e.opts.Spec.NumParams())
}

// Stages returns the pipeline-parallel layer partition (nil unless the PP
// strategy is selected).
func (e *Engine) Stages() []StageRange { return e.stages }

// Replica returns the LowDiff+ CPU-resident replica — per-iteration
// in-memory recovery (§5.3) without touching storage — or nil unless the
// Plus strategy is selected.
func (e *Engine) Replica() Replica { return e.rep }

// Loss returns the current objective value at worker 0's parameters.
func (e *Engine) Loss() float64 {
	l, err := e.oracle.Loss(e.params[0].Flat)
	if err != nil {
		return 0
	}
	return l
}

// Writer exposes the batched writer's counters (nil when diffs disabled).
func (e *Engine) Writer() *BatchedWriter { return e.writer }

// WorkersInSync reports whether all workers hold bit-identical parameters,
// the invariant synchronized training must maintain.
func (e *Engine) WorkersInSync() bool {
	for w := 1; w < len(e.params); w++ {
		if !e.params[w].Flat.Equal(e.params[0].Flat) {
			return false
		}
	}
	return true
}

// runBaseline records counter values at Run entry so per-Run deltas can be
// reported for counters that accumulate across Run calls.
type runBaseline struct {
	fullsTaken     int64
	layerSnapshots int64
	snapshotBytes  int64
	replicaSteps   int64
}

// Run trains iters iterations through the canonical step loop with the
// strategy's checkpointing riding alongside, returning aggregate statistics.
// Run may be called repeatedly; iteration numbering continues.
//
// When Run returns, training is done, the differential queue is consumed, the
// LowDiff+ replica is in lock-step, and every full checkpoint the Run took has
// been handed to the engine's persist stream — not necessarily written: a
// full taken on the last iterations persists while the caller goes on, and
// Flush is the durability barrier. The first error of such a persist is
// returned once, by the next Run or by Flush, whichever comes first.
func (e *Engine) Run(iters int) (RunStats, error) {
	if iters <= 0 {
		return RunStats{}, fmt.Errorf("core: Run(%d): iteration count must be positive", iters)
	}
	var stats RunStats
	stats.Iterations = iters

	rc := &runCtx{start: e.iter, iters: iters, errCh: make(chan error, e.topo.ranks()+2)}
	base := runBaseline{
		fullsTaken:     e.fullsTaken.Value(),
		layerSnapshots: e.layerSnapshots.Value(),
		snapshotBytes:  e.snapshotBytes.Value(),
		replicaSteps:   e.replicaSteps.Value(),
	}
	e.events.Emit("run.start", e.fields(map[string]any{
		"start_iter": e.iter, "iters": iters, e.topo.rankKey(): e.topo.ranks(),
	}))

	if err := e.snap.begin(rc); err != nil {
		return stats, err
	}
	// Persist the initial state once so the differential chain always has
	// a base to recover from, even before the first periodic full
	// checkpoint.
	if rc.start == 0 {
		if err := e.snap.initialFull(rc); err != nil {
			e.snap.end(rc)
			return stats, err
		}
	}
	e.topo.begin(rc)

	var trainWG sync.WaitGroup
	for w := 0; w < e.topo.ranks(); w++ {
		trainWG.Add(1)
		go func(w int) { // training process (§4.1 Alg. 1)
			defer trainWG.Done()
			r := e.topo.newRank(rc, w)
			for t := rc.start + 1; t <= rc.start+int64(iters); t++ {
				if err := r.step(rc, t); err != nil {
					rc.errCh <- err
					return
				}
			}
		}(w)
	}
	trainWG.Wait()
	e.topo.end(rc)
	e.snap.end(rc) // the last hand-offs happen here: the LowDiff+ assembler persists while draining

	select {
	case err := <-rc.errCh:
		return stats, err
	default:
	}
	if err := e.fulls.takeErr(); err != nil {
		return stats, err
	}

	e.iter = rc.start + int64(iters)
	e.fillStats(&stats, rc, base)
	stats.FinalLoss = e.Loss()
	e.events.Emit("run.end", e.fields(e.snap.runEndFields(&stats)))
	return stats, nil
}

func (e *Engine) fillStats(stats *RunStats, rc *runCtx, base runBaseline) {
	if e.writer != nil {
		stats.DiffWrites = e.writer.Writes.Value()
		stats.DiffBytes = e.writer.Bytes.Value()
	}
	if rc.queue != nil {
		stats.BlockedPuts = rc.queue.BlockedPuts.Value()
		stats.QueueHighMark = rc.queue.Depth.High()
	}
	stats.FullWrites = e.fullsTaken.Value() - base.fullsTaken
	stats.SnapshotTime = e.FullSnapshotTimer.Total() + e.snapTimer.Total()
	stats.LayerSnapshots = e.layerSnapshots.Value() - base.layerSnapshots
	stats.SnapshotBytes = e.snapshotBytes.Value() - base.snapshotBytes
	stats.ReplicaSteps = e.replicaSteps.Value() - base.replicaSteps
}

// persistFull is the shared full-checkpoint persistence path: retry ladder,
// health transitions, retention GC, and the ckpt.full.* events. Only the
// fullPersister calls it — from its worker, or from persistInline — so the
// engine's fulls land one at a time, in the order they were taken.
func (e *Engine) persistFull(f *checkpoint.Full) error {
	if e.ft != nil && e.Health() == HealthDegraded {
		return nil // ladder bottom: checkpointing suspended
	}
	persistDone := e.opts.Trace.Begin1(trace.TrackPersist, trace.PhaseFullWrite, "iter", f.Iter)
	var err error
	if e.ft != nil {
		err = e.ft.Retry.Do(func() error {
			_, err := checkpoint.SaveFullWith(e.opts.Store, f, e.pool)
			return err
		}, func(attempt int, err error) {
			e.faults.FullRetries.Inc()
			e.events.Emit("ckpt.full.retry", e.fields(map[string]any{
				"iter": f.Iter, "attempt": attempt, "error": err.Error(),
			}))
		})
	} else {
		_, err = checkpoint.SaveFullWith(e.opts.Store, f, e.pool)
	}
	persistDone()
	if err != nil {
		e.events.Emit("ckpt.full.fail", e.fields(map[string]any{"iter": f.Iter, "error": err.Error()}))
		if e.ft == nil {
			return err
		}
		// Persistent full-checkpoint failure: bottom of the degradation
		// ladder. Training continues; checkpoint writes stop until the
		// next engine restart.
		e.faults.FullFailures.Inc()
		e.degradeTo(HealthDegraded)
		return nil
	}
	e.fullWrites.Inc()
	e.events.Emit("ckpt.full.persist", e.fields(map[string]any{"iter": f.Iter}))
	e.lastFullIter.Store(f.Iter)
	if e.rep != nil {
		e.rep.persisted(f.Iter)
	}
	if e.ft != nil {
		e.restoreHealth() // a fresh base heals diff degradation
	}
	if e.opts.RetainFulls > 0 {
		if err := e.gcOldCheckpoints(); err != nil {
			if e.ft == nil {
				return err
			}
			e.faults.GCFailures.Inc()
		}
	}
	return nil
}

// Flush is the durability barrier (call after Run, e.g. before recovery): it
// joins the full persists still in flight, persists any open differential
// batch and, under the Plus strategy, unpersisted replica progress, and, when
// a retention policy is set, applies it once more now that the asynchronous
// checkpointers are quiescent (during Run the diff consumer can lag the full
// persister, so a stale differential may land after the persister's GC pass).
// A nil return means everything Run took is in the store.
func (e *Engine) Flush() error {
	e.fulls.join()
	if err := e.fulls.takeErr(); err != nil {
		return err
	}
	if e.writer != nil {
		if err := e.writer.Cut(); err != nil {
			if e.ft == nil {
				return err
			}
			// Degraded shutdown: the tail batch is lost after retries;
			// account for it and leave the store consistent (the chain
			// simply ends at the last persisted object).
			e.faults.DiffFailures.Inc()
			e.writer.Drop()
		}
	}
	if e.rep != nil && e.fulls != nil {
		// After the join: a persist that was in flight may already cover
		// the replica's newest iteration.
		if f := e.rep.pendingFull(); f != nil {
			if err := e.fulls.persistInline(f); err != nil {
				return err
			}
		}
	}
	if e.opts.Store != nil && e.opts.RetainFulls > 0 {
		if err := e.gcOldCheckpoints(); err != nil {
			if e.ft == nil {
				return err
			}
			e.faults.GCFailures.Inc()
		}
	}
	return nil
}

// gcOldCheckpoints enforces the RetainFulls retention policy: keep the
// newest RetainFulls full checkpoints, delete older fulls and every
// differential fully covered by the oldest retained full.
func (e *Engine) gcOldCheckpoints() error {
	m, err := checkpoint.Scan(e.opts.Store)
	if err != nil {
		return err
	}
	if len(m.Fulls) == 0 {
		return nil
	}
	keepIdx := len(m.Fulls) - e.opts.RetainFulls
	if keepIdx < 0 {
		keepIdx = 0
	}
	// Everything at or before the oldest retained full is dead — including
	// differentials that landed after a previous GC pass (the asynchronous
	// diff consumer can lag the full persister).
	horizon := m.Fulls[keepIdx].Iter
	for _, f := range m.Fulls[:keepIdx] {
		if err := e.opts.Store.Delete(f.Name); err != nil && !storage.IsNotExist(err) {
			return err
		}
	}
	for _, d := range m.Diffs {
		if d.LastIter <= horizon {
			if err := e.opts.Store.Delete(d.Name); err != nil && !storage.IsNotExist(err) {
				return err
			}
		}
	}
	return nil
}

// applyCompressed applies a synchronized compressed gradient to params via
// the optimizer: sparse payloads use the fused sparse step; dense payloads
// take a dense step directly. Quantized payloads dequantize through pool
// (nil: serial), bit-identically at any worker count.
func applyCompressed(o optim.Optimizer, params tensor.Vector, c *compress.Compressed, pool *parallel.Pool) error {
	if c.Idx != nil {
		return o.StepSparse(params, c.Idx, c.Vals)
	}
	if len(c.Q) > 0 {
		dense := tensor.New(c.N)
		if err := c.DecompressWith(pool, dense); err != nil {
			return err
		}
		return o.Step(params, dense)
	}
	return o.Step(params, c.Vals)
}
