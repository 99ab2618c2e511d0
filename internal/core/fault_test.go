package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/comm"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
)

func TestRetryPolicySucceedsAfterTransientFailures(t *testing.T) {
	fake := fmt.Errorf("transient")
	calls, retries := 0, 0
	var slept []time.Duration
	p := RetryPolicy{
		MaxRetries: 5,
		Backoff:    10 * time.Millisecond,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
	}
	err := p.Do(func() error {
		calls++
		if calls < 3 {
			return fake
		}
		return nil
	}, func(attempt int, err error) {
		retries++
		if !errors.Is(err, fake) {
			t.Fatalf("onRetry saw %v", err)
		}
	})
	if err != nil || calls != 3 || retries != 2 {
		t.Fatalf("err=%v calls=%d retries=%d", err, calls, retries)
	}
	// Deterministic exponential backoff: attempt k sleeps Backoff·2^(k-1).
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoff schedule %v, want %v", slept, want)
	}
}

func TestRetryPolicyExponentialBackoffCappedAndJittered(t *testing.T) {
	fake := fmt.Errorf("transient")
	schedule := func(jitter float64, seed uint64) []time.Duration {
		var slept []time.Duration
		p := RetryPolicy{
			MaxRetries: 4,
			Backoff:    10 * time.Millisecond,
			MaxBackoff: 35 * time.Millisecond,
			Jitter:     jitter,
			Seed:       seed,
			Sleep:      func(d time.Duration) { slept = append(slept, d) },
		}
		_ = p.Do(func() error { return fake }, nil)
		return slept
	}
	// Without jitter: 10, 20, 35 (capped), 35.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 35 * time.Millisecond, 35 * time.Millisecond}
	got := schedule(0, 0)
	if len(got) != len(want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %v, want %v", got, want)
		}
	}
	// Jitter shrinks sleeps, never grows them, and the same seed
	// reproduces the exact same schedule.
	j1, j2 := schedule(0.5, 42), schedule(0.5, 42)
	for i := range j1 {
		if j1[i] != j2[i] {
			t.Fatalf("seeded jitter not deterministic: %v vs %v", j1, j2)
		}
		if j1[i] > want[i] || j1[i] < want[i]/2 {
			t.Fatalf("jittered sleep %v outside [%v, %v]", j1[i], want[i]/2, want[i])
		}
	}
	// A different seed draws a different schedule.
	j3 := schedule(0.5, 43)
	same := true
	for i := range j1 {
		if j1[i] != j3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
}

func TestRetryPolicyTypedExhaustion(t *testing.T) {
	fake := fmt.Errorf("dead")
	err := RetryPolicy{MaxRetries: 2}.Do(func() error { return fake }, nil)
	if !errors.Is(err, ErrRetryExhausted) {
		t.Fatalf("err=%v, want ErrRetryExhausted", err)
	}
	var re *RetryError
	if !errors.As(err, &re) || re.Attempts != 3 || re.DeadlineUp {
		t.Fatalf("RetryError = %+v, want 3 attempts without deadline", re)
	}
	if err := (RetryPolicy{MaxRetries: 2}).Do(func() error { return nil }, nil); err != nil {
		t.Fatalf("success must not wrap: %v", err)
	}
}

func TestRetryPolicyDeadlineCutsRetriesShort(t *testing.T) {
	fake := fmt.Errorf("dead")
	now := time.Unix(0, 0)
	calls := 0
	p := RetryPolicy{
		MaxRetries: 100,
		Backoff:    time.Second,
		Deadline:   3 * time.Second,
		Sleep:      func(d time.Duration) { now = now.Add(d) },
		Now:        func() time.Time { return now },
	}
	err := p.Do(func() error { calls++; return fake }, nil)
	if !errors.Is(err, ErrRetryExhausted) || !errors.Is(err, fake) {
		t.Fatalf("err=%v, want both ErrRetryExhausted and the final error", err)
	}
	var re *RetryError
	if !errors.As(err, &re) || !re.DeadlineUp {
		t.Fatalf("RetryError = %+v, want deadline flavor", re)
	}
	// Sleeps 1s, 2s, then the 3s budget is spent: 3 attempts, not 101.
	if calls != 3 {
		t.Fatalf("made %d attempts under a 3s deadline with 1s base backoff, want 3", calls)
	}
}

func TestRetryPolicyExhaustsAndReturnsFinalError(t *testing.T) {
	fake := fmt.Errorf("dead")
	calls := 0
	err := RetryPolicy{MaxRetries: 2}.Do(func() error { calls++; return fake }, nil)
	if !errors.Is(err, fake) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want final error after 3 attempts", err, calls)
	}
	// MaxRetries < 0 disables retrying.
	calls = 0
	_ = RetryPolicy{MaxRetries: -1}.Do(func() error { calls++; return fake }, nil)
	if calls != 1 {
		t.Fatalf("no-retry policy made %d attempts", calls)
	}
}

func TestRetryPolicyWriteDeadline(t *testing.T) {
	started := make(chan struct{}, 4)
	p := RetryPolicy{MaxRetries: 1, Timeout: 20 * time.Millisecond}
	err := p.Do(func() error {
		started <- struct{}{}
		time.Sleep(300 * time.Millisecond)
		return nil
	}, nil)
	if !errors.Is(err, ErrWriteDeadline) {
		t.Fatalf("err = %v, want write-deadline", err)
	}
	if len(started) != 2 {
		t.Fatalf("%d attempts started, want 2", len(started))
	}
}

// prefixFaultStore rejects writes of objects with a given name prefix a
// bounded number of times — faults scoped to one checkpoint kind.
type prefixFaultStore struct {
	storage.Store
	mu     sync.Mutex
	prefix string
	fails  int
}

// arm makes the next n matching writes fail.
func (s *prefixFaultStore) arm(n int) {
	s.mu.Lock()
	s.fails = n
	s.mu.Unlock()
}

func (s *prefixFaultStore) Create(name string) (io.WriteCloser, error) {
	s.mu.Lock()
	doomed := strings.HasPrefix(name, s.prefix) && s.fails > 0
	if doomed {
		s.fails--
	}
	s.mu.Unlock()
	if doomed {
		return nil, storage.ErrInjectedFault
	}
	return s.Store.Create(name)
}

// Persistent differential-write failure: the engine falls back to a full
// checkpoint as a fresh chain base, heals once it lands, and finishes the
// run healthy — the diff→full rung of the degradation ladder.
func TestEngineFallsBackToFullOnDiffFailure(t *testing.T) {
	mem := storage.NewMem()
	// Two rejections cover the first diff write and its single retry, so
	// the first differential fails persistently and everything after the
	// fallback succeeds.
	store := &prefixFaultStore{Store: mem, prefix: "diff-", fails: 2}
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 1, Optimizer: "sgd", LR: 0.05,
		Rho: 0.3, Store: store, FullEvery: 6, BatchSize: 1, QueueCap: 2,
		Seed:           11,
		FaultTolerance: &FaultToleranceOptions{Retry: RetryPolicy{MaxRetries: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(18); err != nil {
		t.Fatalf("fault-tolerant run aborted: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := e.Health(); got != HealthOK {
		t.Fatalf("health = %v, want ok after the fallback base landed", got)
	}
	fc := e.FaultCounters()
	if fc.DiffFailures.Value() != 1 || fc.FullFallbacks.Value() != 1 {
		t.Fatalf("counters: %+v", fc.Snapshot())
	}
	if fc.DiffRetries.Value() != 1 {
		t.Fatalf("diff retries = %d, want 1", fc.DiffRetries.Value())
	}
	// The store ends recoverable to the final iteration: the last
	// periodic full persisted despite the earlier outage.
	m, err := checkpoint.Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	latest, ok := m.LatestFull()
	if !ok || latest.Iter != 18 {
		t.Fatalf("latest full = %+v, %v; want iter 18", latest, ok)
	}
	// The fallback full is an extra, off-grid base (not a multiple of
	// FullEvery) unless it coincided with a boundary; either way at least
	// the initial, fallback-or-boundary, and later periodic fulls exist.
	if len(m.Fulls) < 4 {
		t.Fatalf("fulls: %+v, want initial + fallback + periodic", m.Fulls)
	}
}

// ladderEvent is one decoded JSONL event, reduced to what the ladder test
// compares (the "engine" tag of the Peer and PP payloads is dropped).
type ladderEvent struct {
	Type string
	Iter int64  // "iter", or "first" for ckpt.diff.persist
	To   string // health.* target rung
}

func decodeLadderEvents(t *testing.T, raw []byte) []ladderEvent {
	t.Helper()
	var out []ladderEvent
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev struct {
			Type   string         `json:"type"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		le := ladderEvent{Type: ev.Type}
		for _, k := range []string{"iter", "first"} {
			if v, ok := ev.Fields[k].(float64); ok {
				le.Iter = int64(v)
				break
			}
		}
		le.To, _ = ev.Fields["to"].(string)
		out = append(out, le)
	}
	return out
}

// One persistent differential-write failure must walk every chain strategy
// through the same rung of the ladder — they share one chain sink: the write
// fails after its retry, ckpt.diff.fallback, a contiguous run of
// ckpt.diff.drop up to the fresh full base, and the chain restarts at the
// gradient right after that base, with identical fault counters. The chain
// restarts no later than the first boundary after the store heals — the sink
// waits for a base that is handed off but not landed instead of dropping past
// it (chainSink.add) — so two boundaries are enough for every strategy. How
// long the drop run is still depends on the strategy and on how far the
// trainer runs ahead of the sink (DP and Peer ask for an on-demand full, PP
// waits for the next periodic one), so the sequences are compared with the
// run collapsed.
func TestDiffWriteFaultLadderSharedAcrossStrategies(t *testing.T) {
	quiesce(t)
	const fullEvery, warm, faulted = 4, 4, 8
	failAt := int64(warm + 1)
	type outcome struct {
		Chain  []string         // sink events, drop run collapsed
		Health []string         // ladder transitions, without their rungs
		Faults map[string]int64 // counter deltas, dropped_diffs excluded
	}
	var outcomes []outcome
	for _, tc := range []struct {
		name     string
		strategy func(o *Options)
		recovers string // rung the fresh base climbs back to
	}{
		{"dp", func(o *Options) { o.Workers = 2 }, "ok"},
		{"peer-fallback", func(o *Options) {
			// Both windows die at iteration 2: the run continues on the
			// storage-differential fallback, which is the chain under test.
			o.Workers = 2
			o.Peer = &PeerSpec{Window: fullEvery, Chaos: &comm.ChaosConfig{
				Crashes: []comm.Crash{{Rank: 0, Iter: 2}, {Rank: 1, Iter: 2}},
			}}
		}, "degraded-peer"},
		{"pp", func(o *Options) { o.PP = &PPSpec{Stages: 2} }, "ok"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := storage.NewMem()
			store := &prefixFaultStore{Store: mem, prefix: "diff-"}
			var log bytes.Buffer // read only once the persister is joined, when no goroutine emits
			events := obs.NewEventLog(&log)
			opts := Options{
				Spec: model.Tiny(4, 16), Optimizer: "sgd", LR: 0.05, Rho: 0.3,
				Store: store, FullEvery: fullEvery, BatchSize: 1, QueueCap: 2, Seed: 21,
				FaultTolerance: &FaultToleranceOptions{Retry: RetryPolicy{MaxRetries: 1}},
				Events:         events,
			}
			tc.strategy(&opts)
			e, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(warm); err != nil {
				t.Fatal(err)
			}
			e.joinFulls()
			before := e.FaultCounters().Snapshot()
			mark := log.Len()
			store.arm(2) // the next differential write and its one retry
			if _, err := e.Run(faulted); err != nil {
				t.Fatalf("fault-tolerant run aborted: %v", err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := events.Err(); err != nil {
				t.Fatal(err)
			}

			var got outcome
			var rungs []string
			base := failAt // last iteration the broken chain lost
			restart := int64(-1)
			fulls := map[int64]bool{}
			for _, ev := range decodeLadderEvents(t, log.Bytes()[mark:]) {
				switch ev.Type {
				case "ckpt.diff.fallback":
					if ev.Iter != failAt {
						t.Fatalf("fallback at iteration %d, want %d", ev.Iter, failAt)
					}
					got.Chain = append(got.Chain, ev.Type)
				case "ckpt.diff.drop":
					if len(got.Chain) == 0 || ev.Iter != base+1 || restart >= 0 {
						t.Fatalf("drop of iteration %d does not extend the run ending at %d (chain %v, restart %d)",
							ev.Iter, base, got.Chain, restart)
					}
					base = ev.Iter
					if got.Chain[len(got.Chain)-1] != "ckpt.diff.drop*" {
						got.Chain = append(got.Chain, "ckpt.diff.drop*")
					}
				case "ckpt.diff.persist":
					if len(got.Chain) > 0 && restart < 0 {
						restart = ev.Iter
						got.Chain = append(got.Chain, "restart")
					}
				case "ckpt.full.persist":
					fulls[ev.Iter] = true
				case "health.degrade", "health.recover":
					got.Health = append(got.Health, ev.Type)
					rungs = append(rungs, ev.To)
				}
			}
			if restart != base+1 || !fulls[base] || base > warm+fullEvery {
				t.Fatalf("chain restarted at %d after drops up to %d (full at %d persisted: %v); want restart at lastFullIter+1, no later than the first boundary after the fault (%d)",
					restart, base, base, fulls[base], warm+fullEvery+1)
			}
			if len(got.Chain) == 2 { // the base landed before the next gradient: an empty drop run
				got.Chain = []string{got.Chain[0], "ckpt.diff.drop*", got.Chain[1]}
			}
			if want := []string{"degraded-diff", tc.recovers}; !reflect.DeepEqual(rungs, want) {
				t.Fatalf("ladder moved through %v, want %v", rungs, want)
			}

			got.Faults = e.FaultCounters().Snapshot()
			for k, v := range before {
				got.Faults[k] -= v
			}
			if dropped := got.Faults["dropped_diffs"]; dropped != base-failAt {
				t.Fatalf("dropped_diffs = %d, want %d (one per ckpt.diff.drop)", dropped, base-failAt)
			}
			delete(got.Faults, "dropped_diffs")
			outcomes = append(outcomes, got)

			// The restarted chain is a valid one: storage alone recovers the
			// live state bit-exactly.
			st, _, err := recovery.Latest(mem)
			if err != nil {
				t.Fatal(err)
			}
			if st.Iter != warm+faulted || !st.Params.Equal(e.Params()) {
				t.Fatalf("recovered to iteration %d (bit-exact=%v), want %d bit-exact",
					st.Iter, st.Params.Equal(e.Params()), warm+faulted)
			}
		})
	}
	want := outcome{
		Chain:  []string{"ckpt.diff.fallback", "ckpt.diff.drop*", "restart"},
		Health: []string{"health.degrade", "health.recover"},
		Faults: map[string]int64{
			"diff_retries": 1, "diff_failures": 1, "full_fallbacks": 1,
			"degradations": 1, "recoveries": 1,
			"full_retries": 0, "full_failures": 0, "gc_failures": 0, "retry_backoffs": 0,
		},
	}
	for i, got := range outcomes {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("strategy %d walked the ladder differently:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// Persistent storage death: every rung fails — differential writes, then
// the fallback full — and the engine degrades to health "degraded" while
// training runs to completion instead of aborting. The counters account
// for every retry and every dropped differential.
func TestEngineDegradesInsteadOfAborting(t *testing.T) {
	mem := storage.NewMem()
	chaos, err := storage.NewChaos(mem, storage.ChaosConfig{Seed: 5, FailWritesAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 2, Optimizer: "adam", LR: 0.02,
		Rho: 0.3, Store: chaos, FullEvery: 4, BatchSize: 1, QueueCap: 2,
		Seed:           7,
		FaultTolerance: &FaultToleranceOptions{Retry: RetryPolicy{MaxRetries: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(30)
	if err != nil {
		t.Fatalf("degraded run aborted: %v", err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("degraded flush errored: %v", err)
	}
	if e.Iter() != 30 || stats.Iterations != 30 {
		t.Fatalf("training stopped early: iter %d", e.Iter())
	}
	if !e.WorkersInSync() {
		t.Fatal("degradation broke worker synchronization")
	}
	if got := e.Health(); got != HealthDegraded {
		t.Fatalf("health = %v, want degraded", got)
	}
	fc := e.FaultCounters()
	snap := fc.Snapshot()
	if fc.DiffFailures.Value() < 1 || fc.FullFallbacks.Value() < 1 {
		t.Fatalf("diff rung not exercised: %+v", snap)
	}
	if fc.FullFailures.Value() < 1 {
		t.Fatalf("full rung not exercised: %+v", snap)
	}
	// Every persistent failure burned the full retry budget.
	if fc.DiffRetries.Value() < 2 || fc.FullRetries.Value() < 2 {
		t.Fatalf("retries unaccounted: %+v", snap)
	}
	if fc.DroppedDiffs.Value() < 1 {
		t.Fatalf("dropped differentials unaccounted: %+v", snap)
	}
	// At least one downward transition; both rungs may collapse into one
	// when the full persister fails before the diff consumer degrades.
	if fc.Degradations.Value() < 1 {
		t.Fatalf("ladder transitions unaccounted: %+v", snap)
	}
	// Whatever landed before the device died is still a readable,
	// consistent prefix.
	m, err := checkpoint.Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fulls)+len(m.Diffs) == 0 {
		t.Fatal("nothing persisted before the fault point; test misconfigured")
	}
	for _, f := range m.Fulls {
		if _, err := checkpoint.LoadFull(mem, f.Name); err != nil {
			t.Fatalf("surviving full %s unreadable: %v", f.Name, err)
		}
	}
}

// Fault tolerance must be opt-in: without it, the first storage error
// still aborts the run (the historical fail-fast contract).
func TestEngineWithoutFaultToleranceStillFailsFast(t *testing.T) {
	faulty, err := storage.NewFaulty(storage.NewMem(), 2)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.3,
		Store: faulty, FullEvery: 4, BatchSize: 1, QueueCap: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := e.Run(20)
	flushErr := e.Flush()
	if runErr == nil && flushErr == nil {
		t.Fatal("fail-fast engine swallowed the injected fault")
	}
	if e.Health() != HealthOK || e.FaultCounters().Degradations.Value() != 0 {
		t.Fatal("fail-fast engine moved on the degradation ladder")
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{
		HealthOK: "ok", HealthDegradedPeer: "degraded-peer", HealthDegradedDiff: "degraded-diff",
		HealthDegraded: "degraded", Health(9): "Health(9)",
	} {
		if h.String() != want {
			t.Errorf("Health(%d).String() = %q, want %q", h, h.String(), want)
		}
	}
}
