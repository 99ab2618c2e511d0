package comm

import (
	"fmt"
	"sync"
	"testing"

	"lowdiff/internal/tensor"
)

func benchAllReduce(b *testing.B, ring bool, workers, n int) {
	b.Helper()
	g, err := NewGroup(workers)
	if err != nil {
		b.Fatal(err)
	}
	vecs := make([]tensor.Vector, workers)
	for w := range vecs {
		vecs[w] = tensor.New(n)
		tensor.NewRNG(uint64(w)).FillUniform(vecs[w], -1, 1)
	}
	b.SetBytes(int64(workers * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var err error
				if ring {
					err = g.RingAllReduceSum(w, vecs[w])
				} else {
					err = g.AllReduceSum(w, vecs[w])
				}
				if err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
}

func BenchmarkAllReduceCentral(b *testing.B) {
	for _, workers := range []int{2, 8} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			benchAllReduce(b, false, workers, 1<<16)
		})
	}
}

func BenchmarkAllReduceRing(b *testing.B) {
	for _, workers := range []int{2, 8} {
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			benchAllReduce(b, true, workers, 1<<16)
		})
	}
	b.Run("gpt2s-layers/w=2", func(b *testing.B) { benchLayerMeans(b, 2) })
}

// benchLayerMeans times what one LowDiff+ step pays for synchronization:
// one op is a mean ring all-reduce of every GPT2-S/100 layer in backward
// order, each rank's calls back to back on its own goroutine.
func benchLayerMeans(b *testing.B, workers int) {
	sizes := gpt2LayerSizes()
	total := 0
	for _, m := range sizes {
		total += m
	}
	g, err := NewGroup(workers)
	if err != nil {
		b.Fatal(err)
	}
	vecs := make([]tensor.Vector, workers)
	for w := range vecs {
		vecs[w] = tensor.New(total)
		tensor.NewRNG(uint64(w)).FillUniform(vecs[w], -1, 1)
	}
	b.SetBytes(int64(workers * total * 4))
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				off := 0
				for _, m := range sizes {
					if err := g.RingAllReduceMean(w, vecs[w][off:off+m]); err != nil {
						b.Error(err)
						return
					}
					off += m
				}
			}
		}(w)
	}
	wg.Wait()
}
