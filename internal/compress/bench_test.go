package compress

import (
	"bytes"
	"fmt"
	"testing"

	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
)

func benchGrad(n int) tensor.Vector {
	g := tensor.New(n)
	tensor.NewRNG(1).FillUniform(g, -1, 1)
	return g
}

func BenchmarkTopKCompress(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 18} {
		for _, rho := range []float64{0.01, 0.1} {
			b.Run(fmt.Sprintf("n=%d/rho=%v", n, rho), func(b *testing.B) {
				g := benchGrad(n)
				tk, _ := NewTopK(rho)
				b.SetBytes(int64(n * 4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := tk.Compress(g); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkInt8Compress(b *testing.B) {
	g := benchGrad(1 << 16)
	b.SetBytes(int64(len(g) * 4))
	for i := 0; i < b.N; i++ {
		if _, err := (Int8{}).Compress(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	const n = 1 << 16
	g := benchGrad(n)
	tk, _ := NewTopK(0.01)
	parts := make([]*Compressed, 8)
	for i := range parts {
		c, err := tk.Compress(g)
		if err != nil {
			b.Fatal(err)
		}
		// Shift indices a little so the union is non-trivial.
		for j := range c.Idx {
			c.Idx[j] = (c.Idx[j] + int32(i*7)) % n
		}
		d := c.Clone()
		d.Idx = dedupSort(d.Idx, d.Vals)
		parts[i] = d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeWith(nil, parts...); err != nil {
			b.Fatal(err)
		}
	}
}

// dedupSort restores the strictly-increasing index invariant after the
// synthetic shifting above.
func dedupSort(idx []int32, vals []float32) []int32 {
	type pair struct {
		j int32
		v float32
	}
	m := map[int32]float32{}
	for i, j := range idx {
		m[j] = vals[i]
	}
	out := idx[:0]
	for j := range m {
		out = append(out, j)
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k] < out[k-1]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	for i, j := range out {
		vals[i] = m[j]
	}
	return out
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	g := benchGrad(1 << 16)
	tk, _ := NewTopK(0.05)
	c, err := tk.Compress(g)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(c.EncodedBytes())
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSortedParts builds nParts sparse Top-K gradients with overlapping
// index sets — the batched writer's flush input shape.
func benchSortedParts(b *testing.B, n, nParts int, rho float64) []*Compressed {
	b.Helper()
	tk, _ := NewTopK(rho)
	parts := make([]*Compressed, nParts)
	for i := range parts {
		g := tensor.New(n)
		tensor.NewRNG(uint64(i+1)).FillUniform(g, -1, 1)
		c, err := tk.Compress(g)
		if err != nil {
			b.Fatal(err)
		}
		parts[i] = c
	}
	return parts
}

// compressHeapReference is the retired Top-K compression path: bounded
// min-heap selection (topKHeapReference, the test oracle) plus a serial
// value gather. It is the "serial baseline" arm of the data-plane
// composite benchmark below.
func compressHeapReference(g tensor.Vector, rho float64) *Compressed {
	k := ceilK(len(g), rho)
	idx := topKHeapReference(g, k)
	vals := make([]float32, len(idx))
	for i, j := range idx {
		vals[i] = g[j]
	}
	return &Compressed{Codec: "topk", N: len(g), Idx: idx, Vals: vals}
}

// BenchmarkDataplaneCompressMerge is the data-plane composite the parallel
// rework targets: one Top-K compression (the per-iteration producer path)
// plus one 16-part union-sum merge (the batched writer's flush path).
// baseline replays the retired implementation — heap selection plus the
// map-based union-sum (both kept in dataplane_test.go as oracles);
// kway-serial and kway-pooled8 run the replacement quickselect compression
// and k-way merge at 1 and 8 pool workers. scripts/bench.sh records these
// in BENCH_dataplane.json.
func BenchmarkDataplaneCompressMerge(b *testing.B) {
	const n, nParts = 1 << 16, 16
	const rho = 0.01
	g := benchGrad(n)
	parts := benchSortedParts(b, n, nParts, rho)
	pool8, err := parallel.New(8)
	if err != nil {
		b.Fatal(err)
	}
	runOne := func(b *testing.B, compress func() (*Compressed, error), merge func() (*Compressed, error)) {
		b.SetBytes(int64(n * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := compress(); err != nil {
				b.Fatal(err)
			}
			if _, err := merge(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline-serial", func(b *testing.B) {
		runOne(b,
			func() (*Compressed, error) { return compressHeapReference(g, rho), nil },
			func() (*Compressed, error) { return mergeMapReference(parts...), nil })
	})
	b.Run("kway-serial", func(b *testing.B) {
		tk, _ := NewTopK(rho)
		runOne(b,
			func() (*Compressed, error) { return tk.Compress(g) },
			func() (*Compressed, error) { return MergeWith(nil, parts...) })
	})
	b.Run("kway-pooled8", func(b *testing.B) {
		tk, _ := NewTopKPooled(rho, pool8)
		runOne(b,
			func() (*Compressed, error) { return tk.Compress(g) },
			func() (*Compressed, error) { return MergeWith(pool8, parts...) })
	})
}

// BenchmarkDataplaneDecompress measures the scatter-add consumer path
// (recovery replay, replica assembly) serially and pooled.
func BenchmarkDataplaneDecompress(b *testing.B) {
	const n = 1 << 18
	g := benchGrad(n)
	tk, _ := NewTopK(0.05)
	c, err := tk.Compress(g)
	if err != nil {
		b.Fatal(err)
	}
	out := tensor.New(n)
	pool8, err := parallel.New(8)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(n * 4))
		for i := 0; i < b.N; i++ {
			if err := c.Decompress(out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pooled8", func(b *testing.B) {
		b.SetBytes(int64(n * 4))
		for i := 0; i < b.N; i++ {
			if err := c.DecompressWith(pool8, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkErrorFeedback(b *testing.B) {
	g := benchGrad(1 << 16)
	tk, _ := NewTopK(0.01)
	ef, _ := NewErrorFeedback(tk, len(g))
	b.SetBytes(int64(len(g) * 4))
	for i := 0; i < b.N; i++ {
		if _, err := ef.Compress(g); err != nil {
			b.Fatal(err)
		}
	}
}
