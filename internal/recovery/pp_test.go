package recovery

import (
	"testing"

	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

// Pipeline-parallel checkpoints recover with the ordinary global replay:
// the merged stage-disjoint gradients applied by one global optimizer
// reproduce the per-stage updates bit-exactly.
func TestPPRecoveryBitExact(t *testing.T) {
	for _, optName := range []string{"adam", "sgd"} {
		store := storage.NewMem()
		e, err := core.NewEngine(core.Options{
			Spec: model.Tiny(8, 24), PP: &core.PPSpec{Stages: 4}, Optimizer: optName,
			LR: 0.02, Rho: 0.25, Store: store,
			FullEvery: 10, BatchSize: 1, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(17); err != nil { // full at 10, diffs to 17
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		st, applied, err := Latest(store)
		if err != nil {
			t.Fatal(err)
		}
		if st.Iter != 17 || applied != 7 {
			t.Fatalf("%s: recovered to %d with %d diffs", optName, st.Iter, applied)
		}
		if !st.Params.Identical(e.Params()) {
			md, _ := st.Params.MaxAbsDiff(e.Params())
			t.Fatalf("%s: PP recovery diverged (max diff %v)", optName, md)
		}
	}
}

// PP recovery feeds Resume like any other: crash, recover, resume with a
// fresh PP engine... resuming PP is equivalent to resuming the DP engine
// on the same state because the trajectory is stage-count invariant.
func TestPPRecoveryResumesViaGlobalEngine(t *testing.T) {
	store := storage.NewMem()
	pp, err := core.NewEngine(core.Options{
		Spec: model.Tiny(6, 20), PP: &core.PPSpec{Stages: 3}, Optimizer: "sgd", LR: 0.05,
		Codec: "identity", Noise: 0, Store: store,
		FullEvery: 8, BatchSize: 1, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Run(13); err != nil {
		t.Fatal(err)
	}
	if err := pp.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Params.Identical(pp.Params()) {
		t.Fatal("PP recovery not exact")
	}
	// Continue the job on a data-parallel engine from the recovered state:
	// with the identity codec and zero noise both engines apply the same
	// dense gradient, so trajectories agree.
	resumed, err := core.ResumeEngine(core.Options{
		Spec: model.Tiny(6, 20), Workers: 1, Optimizer: "sgd", LR: 0.05,
		Codec: "identity", Noise: 0, Seed: 8,
	}, st.Params, st.Opt, st.Iter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(7); err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Run(7); err != nil {
		t.Fatal(err)
	}
	if !resumed.Params().Identical(pp.Params()) {
		md, _ := resumed.Params().MaxAbsDiff(pp.Params())
		t.Fatalf("cross-engine resume diverged (max diff %v)", md)
	}
}
