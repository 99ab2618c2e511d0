package recovery

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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

// randkRecordSHA256 pins the bytes of randkRecord's encoding: a sparse
// gradient differential labelled "randk", the record a one-worker random-K
// run wrote before that codec left the engine.
const randkRecordSHA256 = "ce179ccf962491ecd25bc0c6e38e527397526a4e8a660342246a76f39cb4002d"

func randkRecord() *checkpoint.Diff {
	return &checkpoint.Diff{Kind: checkpoint.KindGradient, FirstIter: 1, LastIter: 1, Count: 1,
		Payload: &compress.Compressed{Codec: "randk", N: 8, Idx: []int32{1, 4, 6}, Vals: []float32{0.5, -2, 0.25}}}
}

// A random-K record still decodes and replays: the codec name is a label,
// and replay applies any sparse gradient payload alike.
func TestRandKRecordDecodesAndReplays(t *testing.T) {
	var buf bytes.Buffer
	if err := randkRecord().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != randkRecordSHA256 {
		t.Fatalf("randk record sha256 %s, want %s", got, randkRecordSHA256)
	}
	d, err := checkpoint.DecodeDiff(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Payload.Codec != "randk" {
		t.Fatalf("decoded codec %q", d.Payload.Codec)
	}
	full := &checkpoint.Full{Params: tensor.Vector{1, 2, 3, 4, 5, 6, 7, 8},
		Opt: optim.NewSGD(8, optim.SGDConfig{LR: 1}).Snapshot()}
	st, err := Replay(full, []*checkpoint.Diff{d})
	if err != nil {
		t.Fatal(err)
	}
	if want := (tensor.Vector{1, 1.5, 3, 4, 7, 6, 6.75, 8}); st.Iter != 1 || !st.Params.Equal(want) {
		t.Fatalf("replayed iter %d params %v, want 1 %v", st.Iter, st.Params, want)
	}
}
