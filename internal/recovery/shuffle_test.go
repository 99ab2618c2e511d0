package recovery

import (
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// shuffledStore violates the Store.List sorting contract on purpose:
// names come back in reversed, interleaved order. Chain reconstruction
// must not depend on listing order — a remote object store has no
// obligation to honor it — so recovery over this wrapper must behave
// exactly like recovery over the underlying store.
type shuffledStore struct {
	storage.Store
}

func (s *shuffledStore) List(prefix string) ([]string, error) {
	names, err := s.Store.List(prefix)
	if err != nil {
		return nil, err
	}
	// Deterministic derangement: reverse, then swap adjacent pairs.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	for i := 0; i+1 < len(names); i += 2 {
		names[i], names[i+1] = names[i+1], names[i]
	}
	return names, nil
}

func TestRecoveryUnaffectedByListOrder(t *testing.T) {
	_, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(4, 64),
		Workers:   2,
		Optimizer: "adam",
		LR:        0.02,
		Rho:       0.1,
		FullEvery: 10,
		BatchSize: 1,
		Seed:      7,
	}, 37) // several fulls plus a 7-diff tail chain

	want, wantApplied, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	got, gotApplied, err := Latest(&shuffledStore{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != want.Iter || gotApplied != wantApplied {
		t.Fatalf("shuffled listing recovered to iter %d (%d diffs), sorted listing to %d (%d diffs)",
			got.Iter, gotApplied, want.Iter, wantApplied)
	}
	if !tensor.Vector(got.Params).Identical(want.Params) {
		t.Fatal("recovered params depend on store listing order")
	}
	for k, v := range want.Opt.Slots {
		if !tensor.Vector(got.Opt.Slots[k]).Identical(v) {
			t.Fatalf("optimizer slot %q depends on store listing order", k)
		}
	}

	// The manifest itself must come out identical, entry for entry.
	wantM, err := checkpoint.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	gotM, err := checkpoint.Scan(&shuffledStore{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotM.Fulls) != len(wantM.Fulls) || len(gotM.Diffs) != len(wantM.Diffs) {
		t.Fatalf("manifest sizes differ: %d/%d fulls, %d/%d diffs",
			len(gotM.Fulls), len(wantM.Fulls), len(gotM.Diffs), len(wantM.Diffs))
	}
	for i := range wantM.Fulls {
		if gotM.Fulls[i] != wantM.Fulls[i] {
			t.Fatalf("full entry %d differs under shuffled listing: %+v vs %+v", i, gotM.Fulls[i], wantM.Fulls[i])
		}
	}
	for i := range wantM.Diffs {
		if gotM.Diffs[i] != wantM.Diffs[i] {
			t.Fatalf("diff entry %d differs under shuffled listing: %+v vs %+v", i, gotM.Diffs[i], wantM.Diffs[i])
		}
	}
}
