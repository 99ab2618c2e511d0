package recovery

import (
	"errors"
	"strings"
	"testing"

	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

func TestToIterPointInTimeRestore(t *testing.T) {
	store := storage.NewMem()
	e, err := core.NewEngine(core.Options{
		Spec: model.Tiny(2, 24), Workers: 1, Optimizer: "sgd", LR: 0.05,
		Rho: 0.3, Store: store, FullEvery: 10, BatchSize: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Record the live trajectory to compare point-in-time restores against.
	traj := map[int64][]float32{}
	for i := 0; i < 25; i++ {
		if _, err := e.Run(1); err != nil {
			t.Fatal(err)
		}
		traj[e.Iter()] = append([]float32(nil), e.Params()...)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Any iteration is reachable, not just the full-checkpoint grid.
	for _, target := range []int64{3, 10, 17, 25} {
		st, _, err := ToIter(store, target)
		if err != nil {
			t.Fatalf("ToIter(%d): %v", target, err)
		}
		if st.Iter != target {
			t.Fatalf("ToIter(%d) landed at %d", target, st.Iter)
		}
		want := traj[target]
		for i := range want {
			if st.Params[i] != want[i] {
				t.Fatalf("ToIter(%d): params diverge from live trajectory", target)
			}
		}
	}
	// Targets beyond the chain land at the newest recoverable state.
	st, _, err := ToIter(store, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 25 {
		t.Fatalf("overshoot target landed at %d, want 25", st.Iter)
	}
	// Target 0 restores the initial checkpoint.
	st, applied, err := ToIter(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 0 || applied != 0 {
		t.Fatalf("ToIter(0) = iter %d, %d applied", st.Iter, applied)
	}
	if _, _, err := ToIter(store, -1); err == nil {
		t.Fatal("want negative-target error")
	}
	if _, _, err := ToIter(storage.NewMem(), 5); err == nil {
		t.Fatal("want no-checkpoint error")
	}
}

func TestToIterRespectsBatchBoundaries(t *testing.T) {
	store := storage.NewMem()
	e, err := core.NewEngine(core.Options{
		Spec: model.Tiny(2, 16), Workers: 1, Optimizer: "sgd", LR: 0.05,
		Rho: 0.3, Store: store, FullEvery: 12, BatchSize: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(12); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Batches cover [1-4][5-8][9-12]. Target 6 sits mid-batch: recovery
	// stops at the last whole batch, iteration 4.
	st, applied, err := ToIter(store, 6)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 4 || applied != 1 {
		t.Fatalf("mid-batch target landed at %d with %d applied; want 4 with 1", st.Iter, applied)
	}
}

// Crash consistency: the job dies mid-run because the store starts
// rejecting writes; everything that was committed stays recoverable.
func TestCrashConsistencyWithFaultyStore(t *testing.T) {
	// Initial full + 6 more writes, then the device dies.
	faulty, err := storage.NewChaos(storage.NewMem(), storage.ChaosConfig{FailWritesAfter: 7})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(core.Options{
		Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.3,
		Store: faulty, FullEvery: 4, BatchSize: 1, Seed: 3, QueueCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The run must surface the injected fault, not swallow it.
	_, runErr := e.Run(40)
	flushErr := e.Flush()
	if runErr == nil && flushErr == nil && !faulty.Counters().PermanentFault {
		t.Fatal("fault never triggered; test misconfigured")
	}
	if runErr != nil && !errors.Is(runErr, storage.ErrInjectedFault) {
		t.Fatalf("run error = %v, want injected fault", runErr)
	}
	// Whatever survived is a consistent prefix: either recovery succeeds
	// on a contiguous chain, or (if the async full-checkpoint write lost
	// the race to the fault) it reports cleanly that no base exists —
	// never a torn or inconsistent state.
	st, applied, err := Latest(faulty)
	if err != nil {
		if !strings.Contains(err.Error(), "no full checkpoint") {
			t.Fatalf("recovery failed inconsistently: %v", err)
		}
		return
	}
	if st.Iter < 0 || applied < 0 {
		t.Fatalf("nonsensical recovery: %+v, %d", st, applied)
	}
	// The recovered iteration is bounded by what could have been written.
	if st.Iter > 40 {
		t.Fatalf("recovered past the crash point: %d", st.Iter)
	}
}
