package compress

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
)

func benchGrad(n int) tensor.Vector {
	g := tensor.New(n)
	tensor.NewRNG(1).FillUniform(g, -1, 1)
	return g
}

// workloadGradLen is the parameter count of the benchmark harness's
// training model, the shape every DP step compresses.
const workloadGradLen = 1169955

// workloadGrad is a gradient shaped like the harness's: a signal near 1
// under uniform noise of half-width 2.
func workloadGrad(n int) tensor.Vector {
	g := tensor.New(n)
	tensor.NewRNG(1).FillUniform(g, -2, 2)
	for i := range g {
		g[i]++
	}
	return g
}

func BenchmarkTopKCompress(b *testing.B) {
	run := func(name string, g tensor.Vector, rho float64) {
		b.Run(name, func(b *testing.B) {
			tk, _ := NewTopK(rho)
			b.SetBytes(int64(len(g) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tk.Compress(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{1 << 14, 1 << 18} {
		for _, rho := range []float64{0.01, 0.1} {
			run(fmt.Sprintf("n=%d/rho=%v", n, rho), benchGrad(n), rho)
		}
	}
	run(fmt.Sprintf("workload/n=%d/rho=0.01", workloadGradLen), workloadGrad(workloadGradLen), 0.01)
}

// TestTopKAllocs holds one compression at the workload's shape to its
// output: the index and value slices and the Compressed header. Every
// buffer of the select is pooled scratch, so a per-call buffer (the 32 KiB
// sample, or candidate keys at 8 B each) breaks the byte bound. The bounds
// are 1.25× the 3 allocs and 98,416 B one compression took when the gate
// was set.
func TestTopKAllocs(t *testing.T) {
	g := workloadGrad(workloadGradLen)
	tk, _ := NewTopK(0.01)
	allocgate.Check(t, 20, 3.75, 123_020, func() {
		if _, err := tk.Compress(g); err != nil {
			t.Fatal(err)
		}
	})
}

func BenchmarkMerge(b *testing.B) {
	for _, k := range []int{2, 4} {
		parts := benchSortedParts(b, workloadGradLen, k, 0.01)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Merge(parts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
func benchSortedParts(t testing.TB, n, nParts int, rho float64) []*Compressed {
	t.Helper()
	tk, _ := NewTopK(rho)
	parts := make([]*Compressed, nParts)
	for i := range parts {
		g := tensor.New(n)
		tensor.NewRNG(uint64(i+1)).FillUniform(g, -1, 1)
		c, err := tk.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = c
	}
	return parts
}

// compressHeapReference is the retired Top-K compression path: bounded
// min-heap selection (topKHeapReference) plus a serial
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

// BenchmarkDataplaneCompressMerge is the data-plane composite: one Top-K
// compression (the per-iteration producer path) plus one 16-part union-sum
// merge (the batched writer's flush path). baseline replays the retired
// implementation — heap selection plus the map-based union-sum (both kept
// in dataplane_test.go as oracles); kway-serial runs the sampled-threshold
// compression and the folded two-way merge.
// TestDataplaneCompressMergeAllocs holds kway-serial's allocations.
func BenchmarkDataplaneCompressMerge(b *testing.B) {
	g := benchGrad(dataplaneN)
	parts := benchSortedParts(b, dataplaneN, dataplaneParts, dataplaneRho)
	runOne := func(b *testing.B, compress func() (*Compressed, error), merge func() (*Compressed, error)) {
		b.SetBytes(int64(dataplaneN * 4))
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
			func() (*Compressed, error) { return compressHeapReference(g, dataplaneRho), nil },
			func() (*Compressed, error) { return mergeMapReference(parts...), nil })
	})
	b.Run("kway-serial", func(b *testing.B) {
		tk, _ := NewTopK(dataplaneRho)
		runOne(b,
			func() (*Compressed, error) { return tk.Compress(g) },
			func() (*Compressed, error) { return Merge(parts...) })
	})
}

// The data-plane composite's shape: a 64 Ki-parameter gradient at ρ = 0.01,
// merged with 16 flushed parts.
const (
	dataplaneN     = 1 << 16
	dataplaneParts = 16
	dataplaneRho   = 0.01
)

// TestDataplaneCompressMergeAllocs holds the compress + merge at its
// allocation counts: one Top-K compression and one 16-part merge, which
// folds through pooled scratch: the operation allocates its two results,
// 6 objects and 103,840 B. The bounds are those plus half an object and
// 512 B (TestDataplaneAllocs's method), so one more allocation in the
// select or in a merge fold fails.
func TestDataplaneCompressMergeAllocs(t *testing.T) {
	g := benchGrad(dataplaneN)
	parts := benchSortedParts(t, dataplaneN, dataplaneParts, dataplaneRho)
	tk, _ := NewTopK(dataplaneRho)
	allocgate.Check(t, 100, 6.5, 104_352, func() {
		if _, err := tk.Compress(g); err != nil {
			t.Fatal(err)
		}
		if _, err := Merge(parts...); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDataplaneDecompress measures the sparse decompress path
// (replica assembly's scatter into a zeroed view).
func BenchmarkDataplaneDecompress(b *testing.B) {
	const n = 1 << 18
	g := benchGrad(n)
	tk, _ := NewTopK(0.05)
	c, err := tk.Compress(g)
	if err != nil {
		b.Fatal(err)
	}
	out := tensor.New(n)
	b.SetBytes(int64(n * 4))
	for i := 0; i < b.N; i++ {
		if err := c.Decompress(out); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkCompressed *Compressed

// TestDataplaneAllocs holds the rest of the data plane at its allocation
// counts: decompression into caller memory, recovery's scatter-add at two
// pool workers, the k-way and the dense merge, identity compression, clone,
// and the wire encode and decode. A pooled dispatch costs 5 objects
// (ForEach's cursor, WaitGroup and two goroutine closures, and the
// caller's closure); a result costs its header and slices; encode stages
// its 64-byte header. A merge of more than two parts folds through pooled
// scratch, so it too allocates only its result. Each bound is the
// measured count plus half an object and the measured bytes plus 512, so
// one more allocation per call fails it.
func TestDataplaneAllocs(t *testing.T) {
	const n = 1 << 18
	g := benchGrad(n)
	tk, _ := NewTopK(0.2)
	sp, err := tk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	dn, _ := Identity{}.Compress(g)
	parts := benchSortedParts(t, dataplaneN, dataplaneParts, dataplaneRho)
	pool2, err := parallel.New(2)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(n)
	var wire bytes.Buffer
	if err := sp.Encode(&wire); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(nil)
	must := func(t *testing.T, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name          string
		allocs, bytes float64
		op            func(*testing.T)
	}{
		{"decompress/sparse/serial", 0.5, 512, func(t *testing.T) { must(t, sp.Decompress(out)) }},
		{"decompress/dense/serial", 0.5, 512, func(t *testing.T) { must(t, dn.Decompress(out)) }},
		{"add_into/sparse/pool2", 5.5, 728, func(t *testing.T) { must(t, sp.AddIntoWith(pool2, out)) }},
		{"add_into/dense/pool2", 5.5, 712, func(t *testing.T) { must(t, dn.AddIntoWith(pool2, out)) }},
		{"merge/16_parts", 3.5, 98_896, func(t *testing.T) { sinkCompressed, err = Merge(parts...); must(t, err) }},
		{"merge/dense", 2.5, 1_049_168, func(t *testing.T) { sinkCompressed, err = Merge(sp, dn); must(t, err) }},
		{"identity", 2.5, 1_049_168, func(t *testing.T) { sinkCompressed, err = Identity{}.Compress(g); must(t, err) }},
		{"clone", 3.5, 426_576, func(*testing.T) { sinkCompressed = sp.Clone() }},
		{"encode", 1.5, 576, func(t *testing.T) { must(t, sp.Encode(io.Discard)) }},
		{"decode", 5.5, 426_592, func(t *testing.T) {
			rd.Reset(wire.Bytes())
			sinkCompressed, err = Decode(rd)
			must(t, err)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { allocgate.Check(t, 20, tc.allocs, tc.bytes, func() { tc.op(t) }) })
	}
}
