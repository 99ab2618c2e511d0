package recovery

import (
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/compress"
	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// Parallel recovery also handles state-delta (Naive DC) chains, replaying
// them to the very bits serial recovery does.
func TestNaiveDCParallelMatchesSerial(t *testing.T) {
	store := storage.NewMem()
	withStore := core.Options{
		Spec: model.Tiny(2, 24), Workers: 1, Optimizer: "sgd", LR: 0.05,
		Rho: 1.0, FullEvery: 8, BatchSize: 1, NaiveDC: true, Seed: 61,
		Store: store,
	}
	e2, err := core.NewEngine(withStore)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Run(14); err != nil {
		t.Fatal(err)
	}
	if err := e2.Flush(); err != nil {
		t.Fatal(err)
	}
	serial, nS, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	par, nP, err := LatestParallel(store, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if nS != 6 || nP != 6 {
		t.Fatalf("chains %d/%d, want 6", nS, nP)
	}
	assertSameState(t, "NaiveDC parallel", par, serial)
	// Lossless (rho=1) deltas recover the live parameters exactly.
	if !serial.Params.Identical(e2.Params()) {
		t.Fatal("lossless NaiveDC serial recovery diverged")
	}
}

// The apply stage rejects unknown kinds and invalid payloads.
func TestApplyDiffRejects(t *testing.T) {
	full := &checkpoint.Full{Params: tensor.New(4), Opt: optim.NewSGD(4, optim.SGDConfig{}).Snapshot()}
	bad := &checkpoint.Diff{Kind: 9, FirstIter: 1, LastIter: 1, Count: 1,
		Payload: &compress.Compressed{Codec: "x", N: 4, Idx: []int32{0}, Vals: []float32{1}}}
	if _, err := Replay(full, []*checkpoint.Diff{bad}); err == nil {
		t.Fatal("want unknown-kind error")
	}
	nilPayload := &checkpoint.Diff{Kind: checkpoint.KindGradient, FirstIter: 1, LastIter: 1, Count: 1}
	if _, err := Replay(full, []*checkpoint.Diff{nilPayload}); err == nil {
		t.Fatal("want invalid-diff error")
	}
}

// Quantized gradient diffs decode through the dense path of the apply stage.
func TestApplyDiffQuantizedPayload(t *testing.T) {
	params := tensor.New(4)
	o := optim.NewSGD(4, optim.SGDConfig{LR: 1})
	q, err := compress.Int8{}.Compress(tensor.Vector{1, -1, 0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	d := &checkpoint.Diff{Kind: checkpoint.KindGradient, FirstIter: 1, LastIter: 1, Count: 1, Payload: q}
	if err := (&pipeline{}).apply(o, params, d); err != nil {
		t.Fatal(err)
	}
	if params[0] >= 0 || params[1] <= 0 {
		t.Fatalf("quantized gradient not applied: %v", params)
	}
}
