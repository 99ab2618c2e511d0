package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lowdiff/internal/model"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// runner carries one workload through its life cycle in this process.
type runner struct {
	cfg   config
	w     *workload
	spec  model.Spec
	iters int // iterations per block
	dir   string

	a, b *side // b checkpoints (and is traced in a traced run); a is its twin
	yard *yardstick

	attempted, failed int64
	metrics           map[string]metric

	// Timed-section samples: ms per step scaled to the reference box, one
	// per block, and b's time over a's, one per cycle.
	aStep, bStep, ratios []float64
	rawStep              []float64 // b's ms per step as the clock read it
	writes               []op      // b's store writes during the timed blocks
	// clientWriteMs totals every write b's jobs made, warm-up and flush
	// included: the client's view of what the daemon's commits cost.
	clientWriteMs float64
	timedStart    time.Time
	timedEnd      time.Time
	mem           memDelta
}

// scaled turns a duration measured from start into ms on the reference box.
func (r *runner) scaled(start time.Time, d time.Duration) float64 {
	return ms(d) * r.yard.scale(start)
}

// endToEnd lists every metric an untraced run prints, with its unit.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"base_step_ms", "ms"}, {"step_ms", "ms"}, {"step_ms_p75", "ms"},
	{"ckpt_step_ratio", "ratio"}, {"ckpt_bytes_per_step", "B"}, {"get_ms_p50", "ms"},
	{"recover_ms", "ms"}, {"recover_parallel_ms", "ms"},
	{"recover_lat_ms", "ms"}, {"recover_lat_parallel_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

type metricDef struct{ name, unit string }

// set records a metric under the unit its table declares. A name in no table
// is a bug in the harness.
func (r *runner) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if m.name == name {
				r.metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
	}
	panic("bench: metric " + name + " is in no table")
}

// check counts one correctness check and reports a violated one.
func (r *runner) check(ok bool, format string, args ...interface{}) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Printf("FAILED CHECK: "+format+"\n", args...)
	}
}

func (r *runner) countOps(ops []op) {
	a, f := countFailed(ops)
	r.attempted += a
	r.failed += f
}

// takeWrites drains both sides' write interposers into the run's counts and
// returns side b's operations.
func (r *runner) takeWrites() []op {
	r.countOps(r.a.takeWrites())
	ops := r.b.takeWrites()
	r.countOps(ops)
	r.clientWriteMs += sum(fold(ops, "write", "").totals)
	return ops
}

func runWorkload(cfg config) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	spec, err := model.ByName(modelName)
	if err != nil {
		return nil, err
	}
	r := &runner{cfg: cfg, w: w, iters: blockIters, metrics: map[string]metric{}}
	r.spec = spec.Scaled(modelDiv)
	if cfg.quick {
		r.spec, r.iters = spec.Scaled(quickModelDiv), quickBlockIters
	}
	r.yard = newYardstick(r.spec.NumParams())
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	if r.dir, err = os.MkdirTemp(cfg.tmp, w.name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)

	goroutines := runtime.NumGoroutine()
	err = r.lifecycle()
	if cerr := r.closeSides(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	r.check(settled(goroutines), "goroutines leaked: %d before, %d after", goroutines, runtime.NumGoroutine())
	size, err := dirSize(r.dir)
	if err != nil {
		return nil, err
	}
	r.check(size < 1<<30, "temp dir holds %d bytes at exit, retention did not cap it", size)
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

func (r *runner) closeSides() error {
	errA, errB := r.a.close(), r.b.close()
	r.a, r.b = nil, nil
	if errA != nil {
		return errA
	}
	return errB
}

// settled waits for goroutines of closed daemons and clients to exit.
func settled(want int) bool {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= want {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func (r *runner) lifecycle() error {
	// Set-up is repeated so that setup_s is a median and not one sample.
	repeats := 3
	if r.cfg.trace || r.cfg.quick {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if err := r.closeSides(); err != nil {
			return err
		}
		r.yard.sample()
		t0 := time.Now()
		if err := r.setup(i); err != nil {
			return err
		}
		setups = append(setups, r.scaled(t0, time.Since(t0))/1000)
	}
	if err := r.timedBlocks(); err != nil {
		return err
	}
	if err := r.flushAndVerify(); err != nil {
		return err
	}
	rec, err := r.recoveryRounds()
	if err != nil {
		return err
	}
	if r.cfg.trace {
		return r.layerMetrics(rec)
	}
	r.endToEnd(median(setups), rec)
	return nil
}

// setup builds both sides and runs one warm-up block on each, which also
// persists each chain's initial full checkpoint.
func (r *runner) setup(n int) error {
	dir := filepath.Join(r.dir, fmt.Sprintf("setup%d", n))
	var err error
	// In a traced run both sides checkpoint and only b is traced, so the
	// pair measures what observing costs and not what checkpointing costs.
	if r.a, err = buildSide(r.w, r.spec, r.cfg.seed, filepath.Join(dir, "a"), r.cfg.trace, false); err != nil {
		return err
	}
	if r.b, err = buildSide(r.w, r.spec, r.cfg.seed, filepath.Join(dir, "b"), true, r.cfg.trace); err != nil {
		return err
	}
	for _, s := range []*side{r.a, r.b} {
		if _, err := s.runBlock(r.iters); err != nil {
			return err
		}
		r.attempted += int64(r.iters * len(s.jobs))
	}
	r.clientWriteMs = 0
	r.takeWrites()
	runtime.GC()
	return nil
}

// timedBlocks alternates blocks between the two sides, flipping the order
// every block, for whole full-checkpoint cycles.
func (r *runner) timedBlocks() error {
	budget := time.Duration(r.cfg.seconds * r.w.trainShare * float64(time.Second))
	if r.cfg.trace {
		budget /= 2
	}
	cycles := r.w.cycles
	if r.cfg.quick {
		cycles = (cycles + 3) / 4
		if cycles == 0 {
			cycles = 1
		}
	}
	r.timedStart = time.Now()
	block := 0
	for c := 0; ; c++ {
		if cycles > 0 && c == cycles {
			break
		}
		// Stop before a cycle that, at the pace so far, would overrun.
		if elapsed := time.Since(r.timedStart); cycles == 0 && c > 0 && elapsed+elapsed/time.Duration(c) > budget {
			break
		}
		var cycleA, cycleB time.Duration
		for i := 0; i < r.w.cycleBlocks; i, block = i+1, block+1 {
			r.yard.sample()
			pair := time.Now()
			var da, db time.Duration
			var err error
			if block%2 == 0 {
				if da, err = r.a.runBlock(r.iters); err == nil {
					db, err = r.timedB()
				}
			} else {
				if db, err = r.timedB(); err == nil {
					da, err = r.a.runBlock(r.iters)
				}
			}
			if err != nil {
				return err
			}
			r.aStep = append(r.aStep, r.scaled(pair, da)/float64(r.iters))
			r.bStep = append(r.bStep, r.scaled(pair, db)/float64(r.iters))
			r.rawStep = append(r.rawStep, ms(db)/float64(r.iters))
			cycleA, cycleB = cycleA+da, cycleB+db
		}
		// The ratio is taken over a whole cycle, so that the blocks holding
		// the cycle's full checkpoints weigh what they cost, and from the
		// clock's own readings: a pair needs no scaling.
		r.ratios = append(r.ratios, float64(cycleB)/float64(cycleA))
	}
	r.timedEnd = time.Now()
	r.attempted += int64(len(r.bStep) * r.iters * len(r.b.jobs) * 2)
	r.writes = r.takeWrites()
	return nil
}

// timedB runs one block on side b; a traced run also takes the allocator's
// counters around it, outside the timed interval.
func (r *runner) timedB() (time.Duration, error) {
	if !r.cfg.trace {
		return r.b.runBlock(r.iters)
	}
	r.mem.begin()
	d, err := r.b.runBlock(r.iters)
	r.mem.end()
	return d, err
}

type memDelta struct {
	before         runtime.MemStats
	mallocs, bytes uint64
}

func (m *memDelta) begin() { runtime.ReadMemStats(&m.before) }
func (m *memDelta) end() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.bytes += after.TotalAlloc - m.before.TotalAlloc
}

func (r *runner) steps() int { return len(r.bStep) * r.iters }

// flushAndVerify holds the run to what the repository promises: checkpointing
// does not perturb training, and what was flushed recovers to the live state.
func (r *runner) flushAndVerify() error {
	for t, jb := range r.b.jobs {
		ja := r.a.jobs[t]
		r.check(ja.eng.Iter() == jb.eng.Iter() && ja.eng.Params().Equal(jb.eng.Params()),
			"tenant %d: parameters differ between the two sides after %d iterations", t, jb.eng.Iter())
	}
	for _, s := range []*side{r.a, r.b} {
		t0 := time.Now()
		for _, j := range s.jobs {
			if err := j.eng.Flush(); err != nil {
				return err
			}
		}
		if r.cfg.trace && s == r.b {
			r.set("core.flush_ms", ms(time.Since(t0)))
		}
	}
	for t, j := range r.b.jobs {
		rep, err := recovery.Verify(j.raw, recovery.ValidateOptions{})
		if err != nil {
			return err
		}
		r.check(rep.Clean(), "tenant %d: recovery.Verify found damaged objects", t)
		st, _, err := recovery.Latest(j.raw)
		if err != nil {
			return err
		}
		r.checkRecovered(j, st, r.w.exactSerial(), fmt.Sprintf("tenant %d Latest", t))
	}
	if r.b.pool != nil {
		for t, j := range r.b.jobs {
			names, err := j.raw.List("")
			if err != nil {
				return err
			}
			var stored int64
			for _, n := range names {
				sz, err := j.raw.Size(n)
				if err != nil {
					return err
				}
				stored += sz
			}
			u, ok := r.b.pool.srv.Usage(tenantName(t))
			r.check(ok && u.UsedBytes == stored && u.Objects == int64(len(names)),
				"tenant %d: daemon accounts %d bytes in %d objects, store holds %d in %d", t, u.UsedBytes, u.Objects, stored, len(names))
		}
	}
	j := r.b.jobs[0]
	fmt.Printf("final_loss %.9g\n", j.eng.Loss())
	fmt.Printf("params_sha256 %x\n", paramsHash(j.eng.Params()))
	r.takeWrites()
	return nil
}

func paramsHash(v tensor.Vector) [32]byte {
	buf := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	return sha256.Sum256(buf)
}

// checkRecovered compares a recovered state with the job's live one.
func (r *runner) checkRecovered(j *job, st *recovery.State, exact bool, what string) {
	r.check(st.Iter == j.eng.Iter(), "%s: recovered iteration %d, live %d", what, st.Iter, j.eng.Iter())
	if exact {
		r.check(st.Params.Equal(j.eng.Params()), "%s: recovered parameters are not bit-identical to live", what)
		return
	}
	d, err := st.Params.MaxAbsDiff(j.eng.Params())
	r.check(err == nil && d <= approxTol, "%s: recovered parameters off by %g (tolerance %g, %v)", what, d, approxTol, err)
}

// recovered holds the recovery section's samples.
type recovered struct {
	// ms scaled to the reference box, one per round.
	serial, parallel, latSerial, latParallel []float64
	reads                                    []op // through the local interposer
	diffs                                    int  // differentials on the chain
}

// recoveryRounds recovers tenant 0's flushed chain serially and in parallel,
// directly and behind a 2 ms per-operation latency, checking every result.
func (r *runner) recoveryRounds() (*recovered, error) {
	j := r.b.jobs[0]
	rec := &recovered{}
	reads := interpose(j.raw, "recover", nil)
	if r.b.tr != nil {
		reads.rec = r.b.tr.rec
	}
	lat, err := storage.NewLatency(j.raw, latencyRTT)
	if err != nil {
		return nil, err
	}
	popts := recovery.Options{Parallelism: 2}
	// Recovery rounds take what the timed blocks left of the measured
	// seconds; a traced run spends that on the layer probes instead.
	budget := time.Duration(r.cfg.seconds*float64(time.Second)) - r.timedEnd.Sub(r.timedStart)
	minRounds := 3
	if r.cfg.trace {
		budget, minRounds = 0, 2
	}
	if r.cfg.quick {
		budget, minRounds = 0, 1
	}
	cells := []struct {
		into  *[]float64
		store storage.Store
		par   bool
		what  string
	}{
		{&rec.serial, reads, false, "Latest"},
		{&rec.parallel, reads, true, "LatestParallel"},
		{&rec.latSerial, lat, false, "Latest behind latency"},
		{&rec.latParallel, lat, true, "LatestParallel behind latency"},
	}

	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		for _, c := range cells {
			r.yard.sample()
			var st *recovery.State
			var n int
			slept := lat.Ops()
			t0 := time.Now()
			if c.par {
				st, n, err = recovery.LatestParallel(c.store, popts)
			} else {
				st, n, err = recovery.Latest(c.store)
			}
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.what, err)
			}
			// The injected round trips are sleep, which a slow host does not
			// stretch: only the rest is scaled. Parallel loads overlap their
			// sleeps two at a time.
			sleep := time.Duration(lat.Ops()-slept) * latencyRTT
			if c.par {
				sleep /= time.Duration(popts.Parallelism)
			}
			if sleep > d {
				sleep = d
			}
			*c.into = append(*c.into, r.scaled(t0, d-sleep)+ms(sleep))
			rec.diffs = n
			// A chain with no two differentials to merge replays exactly.
			r.checkRecovered(j, st, r.w.exactSerial() && (!c.par || n <= 1), c.what)
		}
	}
	rec.reads = reads.take()
	r.countOps(rec.reads)
	return rec, nil
}

// scaledTotals returns the operations' latencies in reference-box ms.
func (r *runner) scaledTotals(s opStats) []float64 {
	out := make([]float64, len(s.totals))
	for i, t := range s.totals {
		out[i] = t * r.yard.scale(s.starts[i])
	}
	return out
}

// endToEnd fills in what a user of the system sees, from the untraced run.
func (r *runner) endToEnd(setup float64, rec *recovered) {
	w := fold(r.writes, "write", "")
	fulls := fold(rec.reads, "read", "full-")
	r.set("setup_s", setup)
	r.set("base_step_ms", median(r.aStep))
	r.set("step_ms", median(r.bStep))
	r.set("step_ms_p75", percentile(r.bStep, 0.75))
	r.set("ckpt_step_ratio", median(r.ratios))
	r.set("ckpt_bytes_per_step", perStep(float64(w.bytes), r.steps()))
	r.set("get_ms_p50", median(r.scaledTotals(fulls)))
	r.set("recover_ms", median(rec.serial))
	r.set("recover_parallel_ms", median(rec.parallel))
	r.set("recover_lat_ms", median(rec.latSerial))
	r.set("recover_lat_parallel_ms", median(rec.latParallel))
	r.set("peak_rss_mb", peakRSSMB())
	yard := r.yard.values()
	fmt.Printf("host: yardstick median %.2f ms (min %.2f, max %.2f, n=%d; reference %.1f): times above are scaled by reference/yardstick\n",
		median(yard), percentile(yard, 0), percentile(yard, 1), len(yard), yardRefMs)
	fmt.Printf("raw, as the clock read them: step_ms %.3f, object commit p50 %.4f ms\n", median(r.rawStep), median(w.totals))
	fmt.Printf("blocks n=%d (x%d iterations), cycles n=%d with ckpt_step_ratio p25=%.4f p75=%.4f, commits n=%d, recovery rounds n=%d over %d differentials, full reads n=%d\n",
		len(r.bStep), r.iters, len(r.ratios), percentile(r.ratios, 0.25), percentile(r.ratios, 0.75), len(w.totals), len(rec.serial), rec.diffs, len(fulls.totals))
	fmt.Printf("block_ms_per_step twin %.2f\nblock_ms_per_step ckpt %.2f\nyardstick_ms %.2f\n", r.aStep, r.bStep, yard)
}
