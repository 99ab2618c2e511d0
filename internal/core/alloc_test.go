package core

import (
	"testing"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/compress"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

var sinkCompressed *compress.Compressed

// TestRankStepAllocs drives a 1-worker rank of each train strategy through
// its step, in process, and holds the step at its allocation count. No full
// boundary falls inside the measured calls, so what is left is the
// per-iteration path. A DP step allocates 10 objects: the Top-K output (3),
// and the all-gather's two exchanges, part list, scaling closure and merged
// result (7). A peer step adds its barrier's exchange and the window's
// checksum header (12). A PP stage compresses and takes its two barriers
// (5). The Top-K select's pooled scratch can grow on the first calls of a
// fresh process, by a fraction of an object per call. Each bound is the
// measured count plus half an object and the measured bytes plus 512, so
// one more allocation per step fails it.
func TestRankStepAllocs(t *testing.T) {
	const calls = 20
	for _, tc := range []struct {
		name          string
		opts          Options
		allocs, bytes float64
	}{
		{"dp", Options{}, 10.5, 3_781},
		{"peer", Options{Store: storage.NewMem(), Peer: &PeerSpec{Window: 2 * calls}}, 12.5, 3_656},
		{"pp", Options{PP: &PPSpec{Stages: 1}}, 5.5, 2_032},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Spec, opts.Workers, opts.Seed = model.Tiny(4, 4096), 1, 7
			opts.FullEvery = 4 * calls
			e, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			rc := &runCtx{iters: 2 * calls, errCh: make(chan error, 4)}
			if opts.Peer != nil {
				// The peer plane's coverage base.
				if err := e.snap.initialFull(rc); err != nil {
					t.Fatal(err)
				}
			}
			r := e.topo.newRank(rc, 0)
			iter := int64(0)
			allocgate.Check(t, calls, tc.allocs, tc.bytes, func() {
				iter++
				if err := r.step(rc, iter); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestShiftToGlobalAllocs holds a pipeline stage's rebase of its part into
// global coordinates, which runs once per stage and iteration when the PP
// strategy checkpoints, at its result: a header and two slices.
func TestShiftToGlobalAllocs(t *testing.T) {
	part := &compress.Compressed{Codec: "topk", N: 4096, Idx: []int32{3, 70, 4000}, Vals: []float32{1, 2, 3}}
	allocgate.Check(t, 100, 3.5, 624, func() { sinkCompressed = shiftToGlobal(part, 8192, 16384) })
}
