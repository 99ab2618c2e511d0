package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/storage"
	"lowdiff/internal/storaged"
	"lowdiff/internal/trace"
)

type storeKind int

const (
	storeMem  storeKind = iota // storage.NewMem
	storeFile                  // storage.NewFile: temp + rename + fsync
	storePool                  // storage.DialRemote -> storaged -> Tiered(File)
)

// A workload is one job configuration taken through the same life cycle:
// set-up, paired training blocks against a twin that does not checkpoint,
// flush, recovery. What differs is which layers the checkpoints cross.
type workload struct {
	name string
	why  string
	// tenants is the number of jobs that train at once, each with its own
	// engine and its own connection to the shared pool.
	tenants int
	store   storeKind
	// hotFulls sizes the pool's memory tier in full checkpoints: spill to
	// disk starts above it and stops at half of it.
	hotFulls float64
	// knobs sets the engine options that define the workload. Spec, Seed
	// and Store are filled in by the harness.
	knobs func(o *core.Options)
	// cycleBlocks is the full-checkpoint period in blocks. The timed section
	// runs whole cycles, so every run commits the same mix of objects per
	// step however many cycles fit in its time.
	cycleBlocks int
	// cycles fixes the number of timed cycles; 0 runs as many as fit in
	// trainShare of the measured seconds. The rest goes to recovery rounds.
	cycles     int
	trainShare float64
}

// options returns the workload's engine knobs on otherwise zero Options.
func (w *workload) options() core.Options {
	var o core.Options
	w.knobs(&o)
	return o
}

// dense reports LowDiff+: no compression, ring all-reduce, fulls only.
func (w *workload) dense() bool { return w.options().Plus != nil }

// exactSerial reports whether serial recovery must reproduce the live
// parameters bit for bit: every differential holds one gradient, or there are
// only fulls. Otherwise it is held to approxTol like parallel recovery.
func (w *workload) exactSerial() bool { return w.options().BatchSize <= 1 }

const (
	blockIters      = 10
	quickBlockIters = 2
	modelName       = "GPT2-S"
	modelDiv        = 100  // 1,169,955 parameters: one 2-worker step is ~25 ms
	quickModelDiv   = 2000 // smoke scale
	latencyRTT      = 2 * time.Millisecond
	// gradNoise is the oracle's per-worker noise half-width. The signal's is
	// about 1, so noise dominates, as minibatch noise does in real training.
	// It also makes the benchmark steady across seeds: Top-K's quickselect
	// takes its pivots from fixed positions, so at the default 0.05 the
	// near-constant signal gives one seed 6 ms compressions and another 19 ms
	// ones for a whole run; with fresh noise every step draws its own luck
	// and a run measures the average.
	gradNoise = 2.0
)

// approxTol bounds |recovered - live| per parameter where the repository
// promises an approximation only: a batch or a tree-merge applies the sum of
// several gradients as one Adam step, and one Adam step moves a parameter by
// about the learning rate (1e-3), so k merged steps differ from k separate
// ones by at most about k·1e-3. The longest chain here has 130 steps.
const approxTol = 0.25

var workloads = []workload{
	{
		name:    "dp_mem",
		why:     "Paper's headline DP config on a memory store: compute, compress and all-gather do the work, storage is a memcpy, so a storage change must not move it.",
		tenants: 1, store: storeMem, cycleBlocks: 5, trainShare: 0.8,
		knobs: func(o *core.Options) {
			o.Workers, o.BatchSize, o.FullEvery, o.RetainFulls = 2, 1, 50, 2
		},
	},
	{
		name:    "dp_file",
		why:     "Write-heavy DP on a real file store (fsync), batch 4, full every 12, overlap and parallelism on: checkpoint encode, merge, File and queue back-pressure set the ratio.",
		tenants: 1, store: storeFile, cycleBlocks: 6, trainShare: 0.8,
		knobs: func(o *core.Options) {
			o.Workers, o.BatchSize, o.FullEvery, o.RetainFulls = 2, 4, 12, 2
			o.Overlap, o.Parallelism = true, 2
		},
	},
	{
		name:    "plus_pool",
		why:     "LowDiff+ (dense, ring all-reduce, fulls only) persisting over the wire to an in-process daemon on a tiered store: the only train-to-disk path through Remote and storaged.",
		tenants: 1, store: storePool, hotFulls: 4.8, cycleBlocks: 1, trainShare: 0.8,
		knobs: func(o *core.Options) {
			o.Workers, o.RetainFulls = 2, 2
			o.Plus = &core.PlusSpec{PersistEvery: 5}
		},
	},
	{
		name:    "pool_tenants",
		why:     "Two 1-worker DP jobs train at once through two connections to one daemon whose per-tenant memory tier holds 1.2 fulls, so every full checkpoint either tenant commits spills to disk.",
		tenants: 2, store: storePool, hotFulls: 1.2, cycleBlocks: 2, trainShare: 0.8,
		knobs: func(o *core.Options) {
			o.Workers, o.BatchSize, o.FullEvery, o.RetainFulls = 1, 1, 20, 1
		},
	},
	{
		name:    "recover_chain",
		why:     "Read side: a 1-worker job leaves one full and 130 differentials on a file store, then recovers serially and in parallel, locally (CPU-bound) and behind 2 ms per operation.",
		tenants: 1, store: storeFile, cycleBlocks: 1, cycles: 12,
		knobs: func(o *core.Options) {
			o.Workers, o.BatchSize, o.FullEvery = 1, 1, 1<<30
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// tracing holds what only the traced side of a traced run carries: the
// program's own recorder and registries, handed to it through its options.
type tracing struct {
	rec       *trace.Recorder
	epoch     time.Time     // wall time of the recorder's zero
	engineReg *obs.Registry // tenant 0's engine instruments
	daemonReg *obs.Registry // storaged's per-tenant counters
}

// A job is one tenant's training engine and the store it checkpoints to.
type job struct {
	eng *core.Engine
	// raw is the store under the write interposer (Mem, File or the Remote
	// client); recovery reads it through interposers of its own. Both are
	// nil on a side that does not checkpoint.
	raw    storage.Store
	writes *interposer
	runs   []core.RunStats // one per block, warm-up included
}

// A side is everything one half of a paired comparison owns.
type side struct {
	jobs []*job
	tr   *tracing
	pool *pool
}

// pool is an in-process storaged with its clients. With a recorder, the
// store each tenant's namespace opens is interposed twice: above the Tiered
// store (what a daemon commit costs) and under it (what a spill costs).
type pool struct {
	srv     *storaged.Server
	clients []*storage.Remote

	mu      sync.Mutex
	tiered  []*storage.Tiered
	backing []*interposer
	cold    []*interposer
}

func startPool(dir string, highWater int64, tr *tracing) (*pool, error) {
	p := &pool{}
	cfg := storaged.Config{
		DefaultMaxInflightBytes: highWater,
		OpenStore: func(tenant string) (storage.Store, error) {
			file, err := storage.NewFile(filepath.Join(dir, tenant))
			if err != nil {
				return nil, err
			}
			var cold storage.Store = file
			if tr != nil {
				ic := interpose(file, "cold."+tenant, tr.rec)
				cold = ic
				p.mu.Lock()
				p.cold = append(p.cold, ic)
				p.mu.Unlock()
			}
			tiered, err := storage.NewTiered(cold, highWater, highWater/2)
			if err != nil {
				return nil, err
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			p.tiered = append(p.tiered, tiered)
			if tr == nil {
				return tiered, nil
			}
			ib := interpose(tiered, "backing."+tenant, tr.rec)
			p.backing = append(p.backing, ib)
			return ib, nil
		},
	}
	if tr != nil {
		cfg.Registry = tr.daemonReg
	}
	srv, err := storaged.Start("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	p.srv = srv
	return p, nil
}

func (p *pool) dial(tenant string, seed uint64) (*storage.Remote, error) {
	c, err := storage.DialRemote(p.srv.Addr(), tenant, storage.RemoteOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	p.clients = append(p.clients, c)
	return c, nil
}

func (p *pool) close() error {
	var first error
	for _, c := range p.clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := p.srv.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

func tenantName(i int) string { return fmt.Sprintf("tenant%d", i) }

// buildSide constructs one side of the comparison under dir: its stores (and
// daemon), and one engine per tenant. A side with ckpt false trains with
// Store nil; traced hands the program a recorder and registries.
func buildSide(w *workload, spec model.Spec, seed uint64, dir string, ckpt, traced bool) (*side, error) {
	s := &side{}
	if traced {
		s.tr = &tracing{epoch: time.Now(), engineReg: obs.New(), daemonReg: obs.New()}
		s.tr.rec = trace.New()
	}
	var rec *trace.Recorder
	if s.tr != nil {
		rec = s.tr.rec
	}
	if ckpt && w.store == storePool {
		p, err := startPool(dir, int64(w.hotFulls*float64(spec.FullCheckpointBytes())), s.tr)
		if err != nil {
			return nil, err
		}
		s.pool = p
	}
	for t := 0; t < w.tenants; t++ {
		opts := w.options()
		opts.Spec, opts.Seed, opts.Noise = spec, seed+uint64(t), gradNoise
		j := &job{}
		if ckpt {
			var err error
			switch w.store {
			case storeMem:
				j.raw = storage.NewMem()
			case storeFile:
				j.raw, err = storage.NewFile(filepath.Join(dir, tenantName(t)))
			case storePool:
				j.raw, err = s.pool.dial(tenantName(t), seed+uint64(t))
			}
			if err != nil {
				return nil, closeAfter(s, err)
			}
			j.writes = interpose(j.raw, "store."+tenantName(t), rec)
			opts.Store = j.writes
		}
		if traced && t == 0 {
			// One engine per recorder: two engines' iteration envelopes on
			// one train track would fold into one meaningless profile.
			opts.Trace, opts.Metrics = s.tr.rec, s.tr.engineReg
		}
		eng, err := core.NewEngine(opts)
		if err != nil {
			return nil, closeAfter(s, err)
		}
		j.eng = eng
		s.jobs = append(s.jobs, j)
	}
	return s, nil
}

func closeAfter(s *side, err error) error {
	_ = s.close() // the construction error is the one to report
	return err
}

func (s *side) close() error {
	if s == nil || s.pool == nil {
		return nil
	}
	return s.pool.close()
}

// runBlock trains every job of the side for iters iterations, all at once,
// and returns the wall time until the last one has drained its checkpoints.
func (s *side) runBlock(iters int) (time.Duration, error) {
	t0 := time.Now()
	if len(s.jobs) == 1 {
		st, err := s.jobs[0].eng.Run(iters)
		s.jobs[0].runs = append(s.jobs[0].runs, st)
		return time.Since(t0), err
	}
	errs := make([]error, len(s.jobs))
	var wg sync.WaitGroup
	for i, j := range s.jobs {
		wg.Add(1)
		go func(i int, j *job) {
			defer wg.Done()
			st, err := j.eng.Run(iters)
			j.runs = append(j.runs, st)
			errs[i] = err
		}(i, j)
	}
	wg.Wait()
	d := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return d, err
		}
	}
	return d, nil
}

// takeWrites drains every job's write interposer.
func (s *side) takeWrites() []op {
	var ops []op
	for _, j := range s.jobs {
		if j.writes != nil {
			ops = append(ops, j.writes.take()...)
		}
	}
	return ops
}
