package recovery

import (
	"math"
	"strconv"
	"testing"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/compress"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// firstDiffs shows only the first k differentials of the store under it.
type firstDiffs struct {
	storage.Store
	k int
}

func (s firstDiffs) List(prefix string) ([]string, error) {
	names, err := s.Store.List(prefix)
	if prefix == "diff-" && len(names) > s.k {
		names = names[:s.k]
	}
	return names, err
}

// BenchmarkRecoverChain recovers chains of the end-to-end benchmark's
// recover_chain shape (one Adam full of 1,169,955 parameters and k unbatched
// Top-K differentials at ρ = 0.01, on a File store, two workers), applying
// every differential in time-tiled runs of up to lookAhead on the packed
// kernel. Sub-benchmarks are named by k (EXPERIMENTS.md "Restore path" has
// the tables); the latency/k arms put 2 ms before every Open of the same
// store, where the load window's overlap with the full shows.
func BenchmarkRecoverChain(b *testing.B) {
	const n, longest = 1_169_955, 130
	file, err := storage.NewFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := tensor.NewRNG(3)
	params, g := tensor.New(n), tensor.New(n)
	r.FillUniform(params, -1, 1)
	o := optim.NewAdam(n, optim.AdamConfig{LR: 1e-3})
	r.FillUniform(g, -1, 1)
	if err := o.Step(params, g); err != nil {
		b.Fatal(err)
	}
	if _, err := checkpoint.SaveFull(file, &checkpoint.Full{Iter: 1, Params: params, Opt: o.Snapshot()}); err != nil {
		b.Fatal(err)
	}
	tk, err := compress.NewTopK(0.01)
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(2); i < 2+longest; i++ {
		r.FillUniform(g, -1, 1)
		c, err := tk.Compress(g)
		if err != nil {
			b.Fatal(err)
		}
		d := &checkpoint.Diff{Kind: checkpoint.KindGradient, FirstIter: i, LastIter: i, Count: 1, Payload: c}
		if _, err := checkpoint.SaveDiff(file, d); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, store storage.Store, k int) {
		for i := 0; i < b.N; i++ {
			st, applied, err := newPipeline(firstDiffs{store, k}, 2, lookAhead, nil).strict(math.MaxInt64)
			if err != nil || applied != k || st.Iter != int64(1+k) {
				b.Fatalf("recovered %d differentials to %v: %v", applied, st, err)
			}
		}
	}
	for _, k := range []int{1, 2, 3, 4, 8, 16, longest} {
		b.Run(strconv.Itoa(k), func(b *testing.B) { run(b, file, k) })
	}
	lat, err := storage.NewLatency(file, 2*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{3, 10, longest} {
		b.Run("latency/"+strconv.Itoa(k), func(b *testing.B) { run(b, lat, k) })
	}
}
