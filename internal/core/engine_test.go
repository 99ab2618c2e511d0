package core

import (
	"strings"
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

func TestNewEngineValidation(t *testing.T) {
	spec := model.Tiny(3, 16)
	cases := []Options{
		{},                                      // no spec
		{Spec: spec, Workers: -1},               // bad workers
		{Spec: spec, Workers: 1, FullEvery: -1}, // bad interval
		{Spec: spec, Workers: 1, BatchSize: -2},
		{Spec: spec, Workers: 1, FullEvery: 10, BatchSize: 3}, // not a divisor
		{Spec: spec, Workers: 1, Optimizer: "lion"},
		{Spec: spec, Workers: 1, Codec: "zstd"},
		{Spec: spec, Workers: 2, Codec: "randk"},
		{Spec: spec, Workers: 1, Noise: -1},
	}
	for i, o := range cases {
		if o.Workers == 0 && i > 0 {
			o.Workers = 1
		}
		if _, err := NewEngine(o); err == nil {
			t.Errorf("case %d (%+v): want error", i, o)
		}
	}
}

// TestNewEngineRejectsInt8 holds every codec but Top-K and identity out
// of training at construction: the retired int8 and random-K, and a name
// no release knew, at one and two workers, with and without a store.
func TestNewEngineRejectsInt8(t *testing.T) {
	for _, codec := range []string{"int8", "randk", "zstd"} {
		for _, workers := range []int{1, 2} {
			for _, store := range []storage.Store{nil, storage.NewMem()} {
				_, err := NewEngine(Options{Spec: model.Tiny(3, 16), Workers: workers, Codec: codec, Store: store})
				if err == nil || !strings.Contains(err.Error(), "unknown codec") || !strings.Contains(err.Error(), codec) {
					t.Errorf("%s, workers %d, store %v: err = %v, want an unknown-codec rejection", codec, workers, store != nil, err)
				}
			}
		}
	}
}

func TestEngineTrainsAndConverges(t *testing.T) {
	e, err := NewEngine(Options{
		Spec:    model.Tiny(4, 64),
		Workers: 2,
		Rho:     0.1,
		LR:      0.05,
		Seed:    1,
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
		t.Fatalf("loss did not drop: %v -> %v", l0, stats.FinalLoss)
	}
	if e.Iter() != 300 {
		t.Fatalf("Iter = %d", e.Iter())
	}
	if !e.WorkersInSync() {
		t.Fatal("workers drifted out of sync")
	}
}

func TestEngineRunErrors(t *testing.T) {
	e, err := NewEngine(Options{Spec: model.Tiny(2, 8), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(0); err == nil {
		t.Fatal("want iteration-count error")
	}
	if _, err := e.Run(-5); err == nil {
		t.Fatal("want iteration-count error")
	}
}

func TestEngineCheckpointsWritten(t *testing.T) {
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec:      model.Tiny(3, 32),
		Workers:   2,
		Rho:       0.1,
		Store:     mem,
		FullEvery: 10,
		BatchSize: 2,
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FullWrites != 4 { // initial state + 3 periodic
		t.Fatalf("FullWrites = %d, want 4", stats.FullWrites)
	}
	// 30 diffs in batches of 2 => 15 writes.
	if stats.DiffWrites != 15 {
		t.Fatalf("DiffWrites = %d, want 15", stats.DiffWrites)
	}
	e.joinFulls() // the full taken at iteration 30 is still in flight
	m, err := checkpoint.Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fulls) != 4 || len(m.Diffs) != 15 {
		t.Fatalf("store holds %d fulls, %d diffs", len(m.Fulls), len(m.Diffs))
	}
	latest, _ := m.LatestFull()
	if latest.Iter != 30 {
		t.Fatalf("latest full at iter %d", latest.Iter)
	}
	// Diff chain from the latest full must be empty (nothing after 30),
	// and from iter 20 must cover 21..30.
	chain := m.DiffsAfter(20)
	if len(chain) != 5 || chain[0].FirstIter != 21 || chain[4].LastIter != 30 {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestEngineBatchesNeverStraddleFulls(t *testing.T) {
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec:      model.Tiny(2, 16),
		Workers:   1,
		Rho:       0.2,
		Store:     mem,
		FullEvery: 6,
		BatchSize: 3,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(20); err != nil { // not a multiple of 6: leaves a tail
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	m, _ := checkpoint.Scan(mem)
	for _, d := range m.Diffs {
		lo := (d.FirstIter - 1) / 6
		hi := (d.LastIter - 1) / 6
		if lo != hi {
			t.Fatalf("batch %q straddles a full-checkpoint boundary", d.Name)
		}
	}
}

func TestEngineContinuesAcrossRuns(t *testing.T) {
	e, err := NewEngine(Options{Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(7); err != nil {
		t.Fatal(err)
	}
	if e.Iter() != 12 {
		t.Fatalf("Iter = %d, want 12", e.Iter())
	}
}

// Identical seeds must give identical trajectories regardless of worker
// count (synchronized data-parallel training is deterministic here because
// the merged gradient is averaged deterministically).
func TestEngineDeterminism(t *testing.T) {
	run := func() []float32 {
		e, err := NewEngine(Options{Spec: model.Tiny(3, 32), Workers: 2, Rho: 0.1, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(50); err != nil {
			t.Fatal(err)
		}
		return e.Params()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed runs diverged")
		}
	}
}

func TestEngineWithoutStoreSkipsCheckpointing(t *testing.T) {
	e, err := NewEngine(Options{Spec: model.Tiny(2, 8), Workers: 1, Rho: 0.5, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiffWrites != 0 || stats.FullWrites != 0 {
		t.Fatalf("checkpoint writes without a store: %+v", stats)
	}
	if e.Writer() != nil {
		t.Fatal("writer should be nil without a store")
	}
}

func TestEngineDisableDiffs(t *testing.T) {
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 8), Workers: 1, Rho: 0.5,
		Store: mem, FullEvery: 5, DisableDiffs: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	e.joinFulls()
	m, _ := checkpoint.Scan(mem)
	if len(m.Fulls) != 3 || len(m.Diffs) != 0 { // initial + 2 periodic
		t.Fatalf("full-only mode wrote %d fulls, %d diffs", len(m.Fulls), len(m.Diffs))
	}
}

func TestEngineNaiveDCWritesStateDeltas(t *testing.T) {
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.5,
		Store: mem, FullEvery: 5, NaiveDC: true, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	m, _ := checkpoint.Scan(mem)
	if len(m.Diffs) != 10 {
		t.Fatalf("NaiveDC wrote %d diffs, want 10", len(m.Diffs))
	}
	d, err := checkpoint.LoadDiff(mem, m.Diffs[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != checkpoint.KindStateDelta {
		t.Fatalf("NaiveDC diff kind = %v", d.Kind)
	}
}
