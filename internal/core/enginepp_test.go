package core

import (
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

func TestPartitionStages(t *testing.T) {
	spec := model.Tiny(10, 100)
	for _, n := range []int{1, 2, 3, 5, 10} {
		stages, err := PartitionStages(spec, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(stages) != n {
			t.Fatalf("n=%d: got %d stages", n, len(stages))
		}
		// Stages tile the layer list and the flat interval exactly.
		nextLayer, nextOff := 0, 0
		for _, st := range stages {
			if st.FirstLayer != nextLayer || st.Offset != nextOff {
				t.Fatalf("n=%d: stage %+v not contiguous", n, st)
			}
			if st.LastLayer < st.FirstLayer || st.Size <= 0 {
				t.Fatalf("n=%d: empty stage %+v", n, st)
			}
			nextLayer = st.LastLayer + 1
			nextOff = st.Offset + st.Size
		}
		if nextLayer != len(spec.Layers) || nextOff != spec.NumParams() {
			t.Fatalf("n=%d: stages do not cover the model", n)
		}
	}
	if _, err := PartitionStages(spec, 0); err == nil {
		t.Fatal("want stage-count error")
	}
	if _, err := PartitionStages(spec, 11); err == nil {
		t.Fatal("want too-many-stages error")
	}
}

func TestPartitionBalancedByParams(t *testing.T) {
	// Heavily skewed layers still produce a sane split.
	spec := model.Spec{Name: "skew", Layers: []model.Layer{
		{Name: "a", Size: 1000}, {Name: "b", Size: 10}, {Name: "c", Size: 10},
		{Name: "d", Size: 1000}, {Name: "e", Size: 10},
	}}
	stages, err := PartitionStages(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stages[0].Size < 900 || stages[1].Size < 900 {
		t.Fatalf("unbalanced split: %+v", stages)
	}
}

func TestPPValidation(t *testing.T) {
	spec := model.Tiny(6, 16)
	cases := []Options{
		{PP: &PPSpec{}},
		{Spec: spec, PP: &PPSpec{Stages: 0}},
		{Spec: spec, PP: &PPSpec{Stages: 2}, Optimizer: "lion"},
		{Spec: spec, PP: &PPSpec{Stages: 2}, Codec: "int8"},
		{Spec: spec, PP: &PPSpec{Stages: 2}, FullEvery: 10, BatchSize: 3},
	}
	for i, o := range cases {
		if _, err := NewEngine(o); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestPPTrainsAndConverges(t *testing.T) {
	e, err := NewEngine(Options{
		Spec: model.Tiny(8, 32), PP: &PPSpec{Stages: 4}, Rho: 0.2, LR: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	l0 := e.Loss()
	stats, err := e.Run(300)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalLoss > l0/10 {
		t.Fatalf("PP training did not converge: %v -> %v", l0, stats.FinalLoss)
	}
	if e.Iter() != 300 {
		t.Fatalf("Iter = %d", e.Iter())
	}
}

func TestPPMatchesSingleStage(t *testing.T) {
	// Stage count must not change the trajectory: per-stage optimizers
	// over disjoint slices equal one global optimizer.
	run := func(stages int) []float32 {
		e, err := NewEngine(Options{
			Spec: model.Tiny(6, 24), PP: &PPSpec{Stages: stages}, Codec: "identity",
			LR: 0.02, Seed: 2, Noise: 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(40); err != nil {
			t.Fatal(err)
		}
		return e.Params()
	}
	one := run(1)
	three := run(3)
	six := run(6)
	for i := range one {
		if one[i] != three[i] || one[i] != six[i] {
			t.Fatal("stage count changed the training trajectory")
		}
	}
}

func TestPPCheckpointsAssembled(t *testing.T) {
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(8, 32), PP: &PPSpec{Stages: 4}, Rho: 0.2,
		Store: mem, FullEvery: 10, BatchSize: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(20); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := checkpoint.Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fulls) != 3 { // initial + 2 periodic
		t.Fatalf("%d fulls", len(m.Fulls))
	}
	if len(m.Diffs) != 10 { // 20 iterations in batches of 2
		t.Fatalf("%d diffs", len(m.Diffs))
	}
	// Each differential is one merged record spanning all stages: its
	// indices must cover multiple stage intervals.
	d, err := checkpoint.LoadDiff(mem, m.Diffs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	stages := e.Stages()
	seen := map[int]bool{}
	for _, j := range d.Payload.Idx {
		for s, st := range stages {
			if int(j) >= st.Offset && int(j) < st.Offset+st.Size {
				seen[s] = true
			}
		}
	}
	if len(seen) != len(stages) {
		t.Fatalf("assembled diff covers %d stages, want %d", len(seen), len(stages))
	}
}

func TestPPGlobalOptState(t *testing.T) {
	e, err := NewEngine(Options{
		Spec: model.Tiny(4, 16), PP: &PPSpec{Stages: 2}, Rho: 0.5, LR: 0.01, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	st, err := e.GlobalOptState()
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "adam" || st.Step != 5 {
		t.Fatalf("global state = %s step %d", st.Name, st.Step)
	}
	if len(st.Slots["m"]) != 64 || len(st.Slots["v"]) != 64 {
		t.Fatalf("global slots wrong shape: m=%d v=%d", len(st.Slots["m"]), len(st.Slots["v"]))
	}
}

func TestPPDeterministic(t *testing.T) {
	run := func() []float32 {
		e, err := NewEngine(Options{
			Spec: model.Tiny(6, 20), PP: &PPSpec{Stages: 3}, Rho: 0.3, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(30); err != nil {
			t.Fatal(err)
		}
		return e.Params()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PP engine nondeterministic")
		}
	}
}
