package core

import (
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

func TestEngineRetainFullsGC(t *testing.T) {
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.2,
		Store: mem, FullEvery: 5, BatchSize: 1, RetainFulls: 2, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(25); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := checkpoint.Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fulls) != 2 {
		t.Fatalf("retained %d fulls, want 2", len(m.Fulls))
	}
	if m.Fulls[0].Iter != 20 || m.Fulls[1].Iter != 25 {
		t.Fatalf("retained fulls at %d, %d; want 20, 25", m.Fulls[0].Iter, m.Fulls[1].Iter)
	}
	// Diffs at or before the oldest retained full are gone; the chain
	// from the oldest retained full is intact.
	for _, d := range m.Diffs {
		if d.LastIter <= 20 {
			t.Fatalf("stale diff %q survived GC", d.Name)
		}
	}
	chain := m.DiffsAfter(20)
	if len(chain) != 5 {
		t.Fatalf("chain from retained full has %d diffs, want 5", len(chain))
	}
	if err := (Options{Spec: model.Tiny(1, 4), Workers: 1, RetainFulls: -1}).Spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Options{Spec: model.Tiny(1, 4), Workers: 1, RetainFulls: -1}); err == nil {
		t.Fatal("want RetainFulls validation error")
	}
}
