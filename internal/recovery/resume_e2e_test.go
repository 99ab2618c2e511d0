package recovery

import (
	"testing"

	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

// The full failover loop, end to end through the store: train, crash,
// recover from checkpoint files, resume a fresh engine from the recovered
// state, and land bit-exactly on the uninterrupted trajectory.
func TestEndToEndFailoverBitExact(t *testing.T) {
	opts := core.Options{
		Spec: model.Tiny(3, 40), Workers: 2, Optimizer: "adam",
		LR: 0.02, Rho: 0.1, FullEvery: 10, BatchSize: 1, Seed: 41,
	}
	// Uninterrupted reference.
	ref, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(50); err != nil {
		t.Fatal(err)
	}
	// Victim crashes at 33.
	store := storage.NewMem()
	victimOpts := opts
	victimOpts.Store = store
	victim, err := core.NewEngine(victimOpts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Run(33); err != nil {
		t.Fatal(err)
	}
	if err := victim.Flush(); err != nil {
		t.Fatal(err)
	}
	// Recover purely from the store.
	st, applied, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 33 || applied != 3 {
		t.Fatalf("recovered to %d with %d diffs; want 33 with 3", st.Iter, applied)
	}
	// Resume and run to 50.
	resumed, err := core.ResumeEngine(opts, st.Params, st.Opt, st.Iter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(17); err != nil {
		t.Fatal(err)
	}
	if !resumed.Params().Identical(ref.Params()) {
		md, _ := resumed.Params().MaxAbsDiff(ref.Params())
		t.Fatalf("end-to-end failover diverged (max diff %v)", md)
	}
}

// Resuming from a point-in-time restore rolls training back and replays a
// different future deterministically.
func TestResumeFromPointInTime(t *testing.T) {
	opts := core.Options{
		Spec: model.Tiny(2, 24), Workers: 1, Optimizer: "sgd", LR: 0.05,
		Rho: 0.3, FullEvery: 8, BatchSize: 1, Seed: 42,
	}
	store := storage.NewMem()
	withStore := opts
	withStore.Store = store
	e, err := core.NewEngine(withStore)
	if err != nil {
		t.Fatal(err)
	}
	traj12 := make([]float32, opts.Spec.NumParams())
	for i := 0; i < 20; i++ {
		if _, err := e.Run(1); err != nil {
			t.Fatal(err)
		}
		if e.Iter() == 12 {
			copy(traj12, e.Params())
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _, err := ToIter(store, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range traj12 {
		if st.Params[i] != traj12[i] {
			t.Fatal("point-in-time restore differs from the live trajectory at 12")
		}
	}
	resumed, err := core.ResumeEngine(opts, st.Params, st.Opt, st.Iter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(8); err != nil {
		t.Fatal(err)
	}
	// Deterministic oracle: replaying 13..20 reproduces the original run.
	if !resumed.Params().Identical(e.Params()) {
		t.Fatal("replay from the restore point diverged")
	}
}
