package core

// Tests for the capabilities the unified pipeline extends to every
// strategy: resume parity for Plus and PP, checkpoint GC under PP,
// Flush on the LowDiff+ path, and the stability of the exported metric
// name sets.

import (
	"sort"
	"strings"
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// Crash, recover from the CPU replica, resume: the resumed LowDiff+
// trajectory is bit-identical to an uninterrupted run (mirrors
// TestResumeTransparentFailover via the §5.3 in-memory recovery path).
func TestResumePlusTransparentFailover(t *testing.T) {
	quiesce(t)
	for _, optName := range []string{"adam", "sgd"} {
		opts := Options{
			Spec: model.Tiny(4, 24), Workers: 2, Optimizer: optName,
			LR: 0.03, Plus: &PlusSpec{PersistEvery: 5}, Seed: 61,
		}
		ref, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(40); err != nil {
			t.Fatal(err)
		}
		victim, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Run(27); err != nil {
			t.Fatal(err)
		}
		// Software failure: recover from the CPU-resident replica, which
		// has assembled every iteration by the time Run returns.
		rec := victim.Replica().State()
		if rec.Iter != 27 {
			t.Fatalf("%s: replica at iter %d, want 27", optName, rec.Iter)
		}
		resumed, err := ResumeEngine(opts, rec.Params, rec.Opt, rec.Iter)
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Iter() != 27 || resumed.Replica().Iter() != 27 {
			t.Fatalf("%s: resumed engine at %d, replica at %d", optName, resumed.Iter(), resumed.Replica().Iter())
		}
		if _, err := resumed.Run(13); err != nil {
			t.Fatal(err)
		}
		if !resumed.Params().Equal(ref.Params()) {
			md, _ := resumed.Params().MaxAbsDiff(ref.Params())
			t.Fatalf("%s: resumed trajectory diverged (max diff %v)", optName, md)
		}
		// The resumed replica must also track bit-exactly.
		got, want := resumed.Replica().State(), ref.Replica().State()
		if got.Iter != want.Iter || !got.Params.Equal(want.Params) {
			t.Fatalf("%s: resumed replica diverged", optName)
		}
		if optStateHash(got.Opt) != optStateHash(want.Opt) {
			t.Fatalf("%s: resumed replica optimizer state diverged", optName)
		}
	}
}

// Crash, recover the global state, resume: the resumed pipeline-parallel
// trajectory is bit-identical to an uninterrupted run. This exercises
// splitOptState, the inverse of GlobalOptState's assembly.
func TestResumePPTransparentFailover(t *testing.T) {
	for _, optName := range []string{"adam", "sgd"} {
		opts := Options{
			Spec: model.Tiny(6, 32), PP: &PPSpec{Stages: 3}, Optimizer: optName,
			LR: 0.02, Rho: 0.2, FullEvery: 10, Seed: 62,
		}
		ref, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Run(40); err != nil {
			t.Fatal(err)
		}
		store := storage.NewMem()
		victimOpts := opts
		victimOpts.Store = store
		victim, err := NewEngine(victimOpts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := victim.Run(27); err != nil {
			t.Fatal(err)
		}
		if err := victim.Flush(); err != nil {
			t.Fatal(err)
		}
		gst, err := victim.GlobalOptState()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeEngine(opts, victim.Params().Clone(), gst, victim.Iter())
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Iter() != 27 {
			t.Fatalf("%s: resumed at iter %d", optName, resumed.Iter())
		}
		if _, err := resumed.Run(13); err != nil {
			t.Fatal(err)
		}
		if !resumed.Params().Equal(ref.Params()) {
			md, _ := resumed.Params().MaxAbsDiff(ref.Params())
			t.Fatalf("%s: resumed trajectory diverged (max diff %v)", optName, md)
		}
		// The reassembled global state must match the reference's.
		gotSt, err := resumed.GlobalOptState()
		if err != nil {
			t.Fatal(err)
		}
		wantSt, err := ref.GlobalOptState()
		if err != nil {
			t.Fatal(err)
		}
		if optStateHash(gotSt) != optStateHash(wantSt) {
			t.Fatalf("%s: resumed global optimizer state diverged", optName)
		}
	}
}

func TestResumePlusPPValidation(t *testing.T) {
	quiesce(t)
	spec := model.Tiny(2, 8)
	st := optStateFor(t, spec)
	if _, err := ResumeEngine(Options{Spec: spec, Workers: 1, Seed: 1, Plus: &PlusSpec{}}, tensor.New(3), st, 5); err == nil {
		t.Fatal("want plus params-length error")
	}
	if _, err := ResumeEngine(Options{Spec: spec, PP: &PPSpec{Stages: 2}, Seed: 1}, tensor.New(16), st, -1); err == nil {
		t.Fatal("want pp negative-iteration error")
	}
	// A global state whose slots are too short for the stage partition.
	short := st
	short.Slots = map[string][]float32{"m": make([]float32, 4), "v": make([]float32, 4)}
	if _, err := ResumeEngine(Options{Spec: spec, PP: &PPSpec{Stages: 2}, Seed: 1}, tensor.New(16), short, 0); err == nil {
		t.Fatal("want pp split-slot error")
	}
}

func optStateFor(t *testing.T, spec model.Spec) optim.State {
	t.Helper()
	e, err := NewEngine(Options{Spec: spec, Workers: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return e.OptState()
}

// A long pipeline-parallel run with RetainFulls bounded must not grow the
// store without bound: old fulls and the differentials they obsolete are
// garbage-collected after every full persist (the GC gap the PP engine had
// before unification).
func TestPPCheckpointGCBoundsStore(t *testing.T) {
	store := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(4, 16), PP: &PPSpec{Stages: 2}, Rho: 0.3,
		Store: store, FullEvery: 5, RetainFulls: 2, Seed: 63,
	})
	if err != nil {
		t.Fatal(err)
	}
	var prevObjects int
	for round := 0; round < 4; round++ {
		if _, err := e.Run(20); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		m, err := checkpoint.Scan(store)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Fulls) != 2 {
			t.Fatalf("round %d: store holds %d fulls, want 2 (RetainFulls)", round, len(m.Fulls))
		}
		horizon := m.Fulls[0].Iter
		for _, d := range m.Diffs {
			if d.LastIter <= horizon {
				t.Fatalf("round %d: stale diff %s at/before horizon %d survived GC", round, d.Name, horizon)
			}
		}
		objects := len(m.Fulls) + len(m.Diffs)
		if round > 0 && objects != prevObjects {
			t.Fatalf("round %d: store grew from %d to %d objects under a fixed retention policy", round, prevObjects, objects)
		}
		prevObjects = objects
	}
}

// Flush on the LowDiff+ path persists replica progress that landed after
// the last periodic persist, so a run ending mid-interval no longer leaves
// the newest iterations only in volatile memory.
func TestPlusFlushPersistsReplicaTail(t *testing.T) {
	quiesce(t)
	store := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(3, 16), Workers: 1, Plus: &PlusSpec{PersistEvery: 10},
		Store: store, Seed: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(23); err != nil {
		t.Fatal(err)
	}
	e.joinFulls()
	if e.Replica().PersistedIter() != 20 {
		t.Fatalf("persisted iter %d before Flush, want 20", e.Replica().PersistedIter())
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if e.Replica().PersistedIter() != 23 {
		t.Fatalf("persisted iter %d after Flush, want 23", e.Replica().PersistedIter())
	}
	m, err := checkpoint.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	wantIters := []int64{0, 10, 20, 23}
	if len(m.Fulls) != len(wantIters) {
		t.Fatalf("store holds %d fulls, want %d", len(m.Fulls), len(wantIters))
	}
	for i, f := range m.Fulls {
		if f.Iter != wantIters[i] {
			t.Fatalf("full %d at iter %d, want %d", i, f.Iter, wantIters[i])
		}
	}
	// The flushed checkpoint is the replica state, bit-exactly.
	full, err := checkpoint.LoadFull(store, m.Fulls[len(m.Fulls)-1].Name)
	if err != nil {
		t.Fatal(err)
	}
	rec := e.Replica().State()
	if full.Iter != rec.Iter || !full.Params.Equal(rec.Params) {
		t.Fatal("flushed checkpoint does not match the replica state")
	}
	if optStateHash(full.Opt) != optStateHash(rec.Opt) {
		t.Fatal("flushed optimizer state does not match the replica state")
	}
	// Flush is idempotent once the store is caught up.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	m2, err := checkpoint.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Fulls) != len(wantIters) {
		t.Fatalf("second Flush wrote %d extra fulls", len(m2.Fulls)-len(wantIters))
	}
}

func registryNames(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	snap := reg.Snapshot()
	names := make([]string, 0, len(snap.Metrics))
	for _, m := range snap.Metrics {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// Golden metric-name sets: the exported /metrics series documented in
// DESIGN.md §7 are API. A refactor that renames or drops one of these must
// update the documentation (and downstream dashboards) deliberately, not
// silently.
func TestMetricNameSetsGolden(t *testing.T) {
	t.Run("dp", func(t *testing.T) {
		reg := obs.New()
		e, err := NewEngine(Options{
			Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.3,
			Store: storage.NewMem(), FullEvery: 2, Seed: 65, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		// queue.* instruments register per Run (a fresh queue is built
		// each call), so train briefly before snapshotting the set.
		if _, err := e.Run(4); err != nil {
			t.Fatal(err)
		}
		want := []string{
			"ckpt.diff.batches",
			"ckpt.diff.bytes",
			"ckpt.diff.pending_bytes",
			"ckpt.diff.writes",
			"ckpt.full.snapshot_seconds",
			"ckpt.full.snapshots",
			"ckpt.full.writes",
			"engine.health",
			"engine.iter",
			"engine.retry.backoff",
			"engine.workers",
			"fault.degradations",
			"fault.diff_failures",
			"fault.diff_retries",
			"fault.dropped_diffs",
			"fault.full_failures",
			"fault.full_fallbacks",
			"fault.full_retries",
			"fault.gc_failures",
			"fault.recoveries",
			"queue.blocked_puts",
			"queue.cap",
			"queue.depth",
			"queue.depth_high",
			"queue.gets",
			"queue.puts",
		}
		if got := registryNames(t, reg); !equalStrings(got, want) {
			t.Fatalf("dp metric names changed:\n got %s\nwant %s",
				strings.Join(got, ", "), strings.Join(want, ", "))
		}
	})
	t.Run("plus", func(t *testing.T) {
		reg := obs.New()
		e, err := NewEngine(Options{
			Spec: model.Tiny(2, 16), Workers: 1, Plus: &PlusSpec{PersistEvery: 2},
			Store: storage.NewMem(), Seed: 66, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(4); err != nil {
			t.Fatal(err)
		}
		want := []string{
			"plus.layer_snapshots",
			"plus.persist_iter",
			"plus.persists",
			"plus.replica_iter",
			"plus.replica_steps",
			"plus.snapshot_bytes",
			"plus.snapshot_seconds",
		}
		if got := registryNames(t, reg); !equalStrings(got, want) {
			t.Fatalf("plus metric names changed:\n got %s\nwant %s",
				strings.Join(got, ", "), strings.Join(want, ", "))
		}
	})
	t.Run("pp", func(t *testing.T) {
		reg := obs.New()
		e, err := NewEngine(Options{
			Spec: model.Tiny(4, 16), PP: &PPSpec{Stages: 2}, Rho: 0.3,
			Store: storage.NewMem(), FullEvery: 2, Seed: 67, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(4); err != nil {
			t.Fatal(err)
		}
		want := []string{
			"ckpt.diff.batches",
			"ckpt.diff.bytes",
			"ckpt.diff.pending_bytes",
			"ckpt.diff.writes",
			"pp.full_writes",
			"pp.iter",
			"pp.stages",
		}
		if got := registryNames(t, reg); !equalStrings(got, want) {
			t.Fatalf("pp metric names changed:\n got %s\nwant %s",
				strings.Join(got, ", "), strings.Join(want, ", "))
		}
	})
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
