package lowdiff

import (
	"testing"
)

// The facade drives the full public workflow: model lookup, training with
// checkpointing, recovery (both modes), resume, tuning, and stores.
func TestFacadeEndToEnd(t *testing.T) {
	if len(Models()) != 8 {
		t.Fatalf("zoo has %d models", len(Models()))
	}
	spec, err := ModelByName("GPT2-S")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(5000)

	store := NewMemStore()
	opts := TrainOptions{
		Spec: spec, Workers: 2, Optimizer: "sgd", LR: 0.05, Rho: 0.05,
		Store: store, FullEvery: 10, BatchSize: 1, Seed: 1,
	}
	engine, err := Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := engine.Run(23)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Flush(); err != nil {
		t.Fatal(err)
	}
	if stats.DiffWrites == 0 || stats.FullWrites == 0 {
		t.Fatalf("no checkpoints written: %+v", stats)
	}

	serial, n, err := Recover(store)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Iter != 23 || n != 3 {
		t.Fatalf("recovered to %d with %d diffs", serial.Iter, n)
	}
	if !serial.Params.Equal(engine.Params()) {
		t.Fatal("serial recovery not bit-exact via facade")
	}
	par, _, err := RecoverParallel(store, RecoverOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if md, _ := par.Params.MaxAbsDiff(engine.Params()); md > 1e-6 {
		t.Fatalf("parallel recovery off by %v", md)
	}

	resumed, err := Resume(opts, serial)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Iter() != 23 {
		t.Fatalf("resumed at %d", resumed.Iter())
	}
	if _, err := resumed.Run(7); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePlusAndPP(t *testing.T) {
	spec, err := ModelByName("BERT-B")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(5000)

	plus, err := TrainPlus(TrainOptions{Spec: spec, Workers: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plus.Run(10); err != nil {
		t.Fatal(err)
	}
	st := plus.Replica().State()
	if !st.Params.Equal(plus.Params()) {
		t.Fatal("plus replica diverged via facade")
	}

	pp, err := TrainPP(TrainOptions{Spec: spec, PP: &PPSpec{Stages: 3}, Rho: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pp.Run(10); err != nil {
		t.Fatal(err)
	}
	if pp.Iter() != 10 {
		t.Fatalf("pp at %d", pp.Iter())
	}
}

func TestFacadeTune(t *testing.T) {
	cfg, err := Tune(SystemParams{
		N: 8, M: 3600, W: 1.4e9, S: 9.14e9, T: 86400, RF: 0.8, RD: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.F <= 0 || cfg.B <= 0 {
		t.Fatalf("nonsensical config %+v", cfg)
	}
	if _, err := Tune(SystemParams{}); err == nil {
		t.Fatal("want validation error")
	}
}

func TestFacadeFileStore(t *testing.T) {
	store, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := ModelByName("ResNet-50")
	engine, err := Train(TrainOptions{
		Spec: spec.Scaled(5000), Workers: 1, Rho: 0.1,
		Store: store, FullEvery: 5, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(7); err != nil {
		t.Fatal(err)
	}
	if err := engine.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _, err := Recover(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 7 {
		t.Fatalf("file-store recovery at %d", st.Iter)
	}
}
