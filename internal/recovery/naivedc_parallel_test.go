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

// Parallel recovery also handles state-delta (Naive DC) chains: deltas are
// additive, so the merge tree is exact up to float rounding.
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
	if md, _ := par.Params.MaxAbsDiff(serial.Params); md > 1e-6 {
		t.Fatalf("NaiveDC parallel vs serial off by %v", md)
	}
	// Lossless (rho=1) deltas recover the live parameters exactly.
	if !serial.Params.Identical(e2.Params()) {
		t.Fatal("lossless NaiveDC serial recovery diverged")
	}
}

// mergeAll runs the pipeline's tree-merge stage over diffs on a 2-worker
// pool and collects what it yields.
func mergeAll(t *testing.T, diffs []*checkpoint.Diff) []*checkpoint.Diff {
	t.Helper()
	next, err := newPipeline(nil, 2, 0, nil).treeMerge(fromSlice(diffs))
	if err != nil {
		t.Fatal(err)
	}
	var out []*checkpoint.Diff
	for {
		d, err := next()
		if err != nil {
			t.Fatal(err)
		}
		if d == nil {
			return out
		}
		out = append(out, d)
	}
}

// treeMerge never merges across kind boundaries or range gaps.
func TestTreeMergeRespectsBoundaries(t *testing.T) {
	g := &compress.Compressed{Codec: "topk", N: 8, Idx: []int32{0}, Vals: []float32{1}}
	mk := func(kind checkpoint.DiffKind, first, last int64) *checkpoint.Diff {
		return &checkpoint.Diff{
			Kind: kind, FirstIter: first, LastIter: last,
			Count: int32(last - first + 1), Payload: g.Clone(),
		}
	}
	// Mixed kinds: gradient, gradient, state-delta — only the first pair
	// merges.
	diffs := []*checkpoint.Diff{
		mk(checkpoint.KindGradient, 1, 1),
		mk(checkpoint.KindGradient, 2, 2),
		mk(checkpoint.KindStateDelta, 3, 3),
	}
	out := mergeAll(t, diffs)
	if len(out) != 2 {
		t.Fatalf("merged to %d records, want 2", len(out))
	}
	if out[0].Kind != checkpoint.KindGradient || out[0].FirstIter != 1 || out[0].LastIter != 2 {
		t.Fatalf("first merge wrong: %+v", out[0])
	}
	if out[1].Kind != checkpoint.KindStateDelta {
		t.Fatalf("state-delta merged across kinds: %+v", out[1])
	}
	// A range gap blocks merging entirely.
	gapped := []*checkpoint.Diff{
		mk(checkpoint.KindGradient, 1, 1),
		mk(checkpoint.KindGradient, 3, 3),
	}
	out = mergeAll(t, gapped)
	if len(out) != 2 {
		t.Fatalf("gapped diffs merged: %+v", out)
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
