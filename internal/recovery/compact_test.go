package recovery

import (
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

func TestCompactFoldsChain(t *testing.T) {
	store := storage.NewMem()
	e, err := core.NewEngine(core.Options{
		Spec: model.Tiny(2, 24), Workers: 1, Optimizer: "sgd", LR: 0.05,
		Rho: 0.3, Store: store, FullEvery: 10, BatchSize: 1, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(17); err != nil { // full at 10, diffs 11..17
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st, freed, err := Compact(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 17 {
		t.Fatalf("compacted to iter %d", st.Iter)
	}
	if freed == 0 {
		t.Fatal("compaction freed nothing")
	}
	// The store now holds exactly one full checkpoint at 17 and no diffs.
	m, err := checkpoint.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fulls) != 1 || m.Fulls[0].Iter != 17 || len(m.Diffs) != 0 {
		t.Fatalf("after compact: %d fulls (latest %d), %d diffs",
			len(m.Fulls), m.Fulls[len(m.Fulls)-1].Iter, len(m.Diffs))
	}
	// Recovery from the compacted store is unchanged and bit-exact.
	again, n, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || again.Iter != 17 {
		t.Fatalf("post-compact recovery: iter %d, %d diffs", again.Iter, n)
	}
	if !again.Params.Identical(e.Params()) {
		t.Fatal("compacted state diverged from live")
	}
	// Training continues cleanly on the compacted store: new diffs chain
	// from the compacted full.
	resumed, err := core.ResumeEngine(core.Options{
		Spec: model.Tiny(2, 24), Workers: 1, Optimizer: "sgd", LR: 0.05,
		Rho: 0.3, Store: store, FullEvery: 10, BatchSize: 1, Seed: 71,
	}, again.Params, again.Opt, again.Iter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(5); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Flush(); err != nil {
		t.Fatal(err)
	}
	final, n, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed engine takes its periodic full at 20 (FullEvery=10), so
	// the newest chain is full-20 plus diffs 21..22.
	if final.Iter != 22 || n != 2 {
		t.Fatalf("post-compact chain broken: iter %d, %d diffs", final.Iter, n)
	}
	if !final.Params.Identical(resumed.Params()) {
		t.Fatal("post-compact recovery diverged from live")
	}
}

func TestCompactIdempotentAtFullBoundary(t *testing.T) {
	store := storage.NewMem()
	e, err := core.NewEngine(core.Options{
		Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.5,
		Store: store, FullEvery: 5, BatchSize: 1, Seed: 72,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Compact(store); err != nil {
		t.Fatal(err)
	}
	st, freed, err := Compact(store) // second compact: nothing left to fold
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 10 || freed != 0 {
		t.Fatalf("second compact: iter %d, freed %d", st.Iter, freed)
	}
}

func TestCompactEmptyStore(t *testing.T) {
	if _, _, err := Compact(storage.NewMem()); err == nil {
		t.Fatal("want no-checkpoint error")
	}
}
