package core

import (
	"errors"
	"testing"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/model"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

func TestPlusValidation(t *testing.T) {
	quiesce(t)
	spec := model.Tiny(3, 16)
	cases := []Options{
		{Plus: &PlusSpec{}},
		{Spec: spec, Workers: 0, Plus: &PlusSpec{}},
		{Spec: spec, Workers: 1, Plus: &PlusSpec{PersistEvery: -2}},
		{Spec: spec, Workers: 1, Optimizer: "lion", Plus: &PlusSpec{}},
	}
	for i, o := range cases {
		if _, err := NewEngine(o); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestPlusTrainsAndConverges(t *testing.T) {
	quiesce(t)
	e, err := NewEngine(Options{
		Spec:    model.Tiny(4, 32),
		Workers: 2,
		LR:      0.05,
		Seed:    1,
		Plus:    &PlusSpec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	l0 := e.Loss()
	stats, err := e.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalLoss > l0/10 {
		t.Fatalf("loss did not drop: %v -> %v", l0, stats.FinalLoss)
	}
	if !e.WorkersInSync() {
		t.Fatal("workers drifted")
	}
	if stats.LayerSnapshots != 200*4 {
		t.Fatalf("LayerSnapshots = %d, want 800", stats.LayerSnapshots)
	}
	if stats.ReplicaSteps != 200 {
		t.Fatalf("ReplicaSteps = %d, want 200", stats.ReplicaSteps)
	}
}

// The central LowDiff+ invariant: after Run, the CPU-resident replica is
// bit-identical to the GPU model — per-iteration in-memory checkpointing
// with zero divergence.
func TestPlusReplicaMatchesModelBitExact(t *testing.T) {
	quiesce(t)
	for _, optName := range []string{"adam", "sgd"} {
		e, err := NewEngine(Options{
			Spec:      model.Tiny(5, 24),
			Workers:   2,
			Optimizer: optName,
			LR:        0.03,
			Seed:      2,
			Plus:      &PlusSpec{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(57); err != nil {
			t.Fatal(err)
		}
		st := e.Replica().State()
		if st.Iter != 57 {
			t.Fatalf("%s: replica at iter %d, want 57", optName, st.Iter)
		}
		if !st.Params.Equal(e.Params()) {
			md, _ := st.Params.MaxAbsDiff(e.Params())
			t.Fatalf("%s: replica differs from model (max diff %v)", optName, md)
		}
	}
}

func TestPlusPersistence(t *testing.T) {
	quiesce(t)
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec:    model.Tiny(3, 16),
		Workers: 1,
		Store:   mem,
		Seed:    3,
		Plus:    &PlusSpec{PersistEvery: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(20)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullWrites != 5 { // initial replica + 4 periodic
		t.Fatalf("Persists = %d, want 5", stats.FullWrites)
	}
	e.joinFulls() // the persist of iteration 20 is still in flight
	if e.Replica().PersistedIter() != 20 {
		t.Fatalf("PersistedIter = %d, want 20", e.Replica().PersistedIter())
	}
	m, _ := checkpoint.Scan(mem)
	if len(m.Fulls) != 5 {
		t.Fatalf("store holds %d fulls", len(m.Fulls))
	}
	// Hardware-failure path: the persisted checkpoint reproduces the
	// replica state at the persisted iteration exactly.
	latest, _ := m.LatestFull()
	full, err := checkpoint.LoadFull(mem, latest.Name)
	if err != nil {
		t.Fatal(err)
	}
	if full.Iter != 20 {
		t.Fatalf("persisted iter = %d", full.Iter)
	}
	if !tensor.Vector(full.Params).Equal(e.Params()) {
		t.Fatal("persisted checkpoint differs from model at the same iteration")
	}
}

func TestPlusSoftwareVsHardwareRecoveryGap(t *testing.T) {
	quiesce(t)
	// Software recovery sees the per-iteration replica; hardware recovery
	// only the last persisted checkpoint. After 23 iterations with
	// PersistEvery=10, software is at 23, hardware at 20.
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec:    model.Tiny(2, 16),
		Workers: 1,
		Store:   mem,
		Seed:    4,
		Plus:    &PlusSpec{PersistEvery: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(23); err != nil {
		t.Fatal(err)
	}
	soft := e.Replica().State()
	if soft.Iter != 23 {
		t.Fatalf("software recovery at iter %d, want 23", soft.Iter)
	}
	e.joinFulls()
	if e.Replica().PersistedIter() != 20 {
		t.Fatalf("hardware recovery base at %d, want 20", e.Replica().PersistedIter())
	}
}

func TestPlusWithoutStore(t *testing.T) {
	quiesce(t)
	e, err := NewEngine(Options{Spec: model.Tiny(2, 8), Workers: 1, Seed: 5, Plus: &PlusSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullWrites != 0 {
		t.Fatalf("persists without store: %d", stats.FullWrites)
	}
	if e.Replica().Iter() != 10 {
		t.Fatalf("replica iter = %d", e.Replica().Iter())
	}
}

func TestPlusRunsAccumulate(t *testing.T) {
	quiesce(t)
	e, err := NewEngine(Options{Spec: model.Tiny(2, 8), Workers: 2, Seed: 6, Plus: &PlusSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(4); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(6); err != nil {
		t.Fatal(err)
	}
	if e.Iter() != 10 || e.Replica().Iter() != 10 {
		t.Fatalf("iter=%d replicaIter=%d, want 10/10", e.Iter(), e.Replica().Iter())
	}
	st := e.Replica().State()
	if !st.Params.Equal(e.Params()) {
		t.Fatal("replica diverged across Run calls")
	}
	if _, err := e.Run(0); err == nil {
		t.Fatal("want iteration-count error")
	}
}

// LowDiff+ must produce the same trajectory as plain dense training: the
// checkpointing machinery cannot perturb training.
func TestPlusMatchesDenseBaseline(t *testing.T) {
	quiesce(t)
	spec := model.Tiny(4, 16)
	plus, err := NewEngine(Options{Spec: spec, Workers: 2, LR: 0.02, Seed: 7, Plus: &PlusSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plus.Run(40); err != nil {
		t.Fatal(err)
	}
	again, err := NewEngine(Options{Spec: spec, Workers: 2, LR: 0.02, Seed: 7, Plus: &PlusSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := again.Run(40); err != nil {
		t.Fatal(err)
	}
	if !plus.Params().Equal(again.Params()) {
		t.Fatal("plus engine is nondeterministic")
	}
}

// TestPlusReplicaStepErrorReleasesReplica fails the replica's optimizer
// step (an optimizer one parameter too long) and requires that Run reports
// it and that the replica stays readable: the failed step must not leave
// the replica locked.
func TestPlusReplicaStepErrorReleasesReplica(t *testing.T) {
	quiesce(t)
	spec := model.Tiny(2, 8)
	e, err := NewEngine(Options{Spec: spec, Workers: 1, Seed: 1, Plus: &PlusSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	e.rep.(*plusReplica).opt = optim.NewAdam(spec.NumParams()+1, optim.AdamConfig{})
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(3)
		if err == nil {
			err = errors.New("Run succeeded with a failing replica step")
		} else {
			err = nil
		}
		_ = e.Replica().Iter()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the replica stayed locked after its step failed")
	}
}
