package compress

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"

	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
)

// --- ceil(ρ·N) boundary semantics -----------------------------------------

func TestCeilKExactBoundaries(t *testing.T) {
	// ρ exactly 1/n must select exactly one entry for every n.
	for n := 1; n <= 512; n++ {
		if k := ceilK(n, 1.0/float64(n)); k != 1 {
			t.Fatalf("ceilK(%d, 1/%d) = %d, want 1", n, n, k)
		}
	}
	// Exact binary multiples land exactly: no off-by-one in either direction.
	for _, c := range []struct {
		n    int
		rho  float64
		want int
	}{
		{6, 0.5, 3}, {64, 0.25, 16}, {100, 0.25, 25}, {1000, 0.125, 125},
		{8, 0.75, 6}, {1 << 16, 0.5, 1 << 15},
	} {
		if k := ceilK(c.n, c.rho); k != c.want {
			t.Fatalf("ceilK(%d, %v) = %d, want %d", c.n, c.rho, k, c.want)
		}
	}
	// ρ = 1 keeps everything.
	for _, n := range []int{1, 7, 100, 4096} {
		if k := ceilK(n, 1); k != n {
			t.Fatalf("ceilK(%d, 1) = %d, want %d", n, k, n)
		}
	}
}

// Regression for the pseudo-ceil bug: int(ρ·n + 0.999999) floors any
// product whose fractional part is below 1e-6, e.g. 10·(0.3+1e-10) →
// 3.000000001 → old k = 3; exact ceil semantics require 4.
func TestCeilKTinyFractionRegression(t *testing.T) {
	n, rho := 10, 0.3+1e-10
	if old := int(float64(n)*rho + 0.999999); old != 3 {
		t.Fatalf("regression precondition: pseudo-ceil gives %d, expected 3", old)
	}
	if k := ceilK(n, rho); k != 4 {
		t.Fatalf("ceilK(%d, %v) = %d, want 4", n, rho, k)
	}
	g := randVec(tensor.NewRNG(9), n)
	tk, _ := NewTopK(rho)
	c, err := tk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Idx) != 4 {
		t.Fatalf("topk kept %d entries, want ceil semantics 4", len(c.Idx))
	}
	rk, _ := NewRandK(rho, 1)
	cr, err := rk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Idx) != 4 {
		t.Fatalf("randk kept %d entries, want ceil semantics 4", len(cr.Idx))
	}
}

// --- RandK Fisher–Yates sampler --------------------------------------------

// The determinism contract: same construction seed + same sequence of
// Compress calls (gradient lengths) ⇒ same indices, at any pool size.
func TestRandKSeededStreamContract(t *testing.T) {
	pool, _ := parallel.NewWithChunk(4, 64)
	mk := func(p *parallel.Pool) *RandK {
		r, err := NewRandKPooled(0.2, 77, p)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b, c := mk(nil), mk(nil), mk(pool)
	for call, n := range []int{100, 353, 7, 2048} {
		g := randVec(tensor.NewRNG(uint64(call)), n)
		ca, _ := a.Compress(g)
		cb, _ := b.Compress(g)
		cc, _ := c.Compress(g)
		if err := ca.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := range ca.Idx {
			if ca.Idx[i] != cb.Idx[i] {
				t.Fatalf("call %d: same seed diverged at entry %d", call, i)
			}
			if ca.Idx[i] != cc.Idx[i] {
				t.Fatalf("call %d: pooled sampler diverged from serial at entry %d", call, i)
			}
		}
	}
	// Different seeds must (overwhelmingly) pick different sets.
	d := func() *RandK { r, _ := NewRandK(0.2, 78); return r }()
	g := randVec(tensor.NewRNG(0), 500)
	cd, _ := d.Compress(g)
	ce, _ := mk(nil).Compress(g)
	same := true
	for i := range cd.Idx {
		if cd.Idx[i] != ce.Idx[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct seeds selected identical index sets")
	}
}

func TestRandKFullRatioIsIdentitySet(t *testing.T) {
	// ρ = 1 degenerates to a full permutation: sorted, that is every index,
	// and the old rejection sampler's coupon-collector pathology is gone
	// (exactly n draws).
	rk, _ := NewRandK(1, 5)
	g := randVec(tensor.NewRNG(5), 257)
	c, err := rk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Idx) != 257 {
		t.Fatalf("rho=1 kept %d of 257", len(c.Idx))
	}
	for i, j := range c.Idx {
		if int(j) != i {
			t.Fatalf("rho=1 sorted index %d = %d", i, j)
		}
		if c.Vals[i] != g[j] {
			t.Fatalf("value mismatch at %d", i)
		}
	}
}

// --- typed validation / merge errors ---------------------------------------

func TestValidateZeroScaleTyped(t *testing.T) {
	bad := &Compressed{Codec: "int8", N: 4, Q: []byte{0, 3, 0, 0}, Scale: 0}
	if err := bad.Validate(); !errors.Is(err, ErrZeroScale) {
		t.Fatalf("want ErrZeroScale, got %v", err)
	}
	ok := &Compressed{Codec: "int8", N: 4, Q: make([]byte, 4), Scale: 0}
	if err := ok.Validate(); err != nil {
		t.Fatalf("all-zero zero-scale payload must validate: %v", err)
	}
}

func TestMergeTypedErrors(t *testing.T) {
	if _, err := MergeWith(nil); !errors.Is(err, ErrMergeEmpty) {
		t.Fatalf("want ErrMergeEmpty, got %v", err)
	}
	a := &Compressed{Codec: "topk", N: 10, Idx: []int32{1}, Vals: []float32{1}}
	b := &Compressed{Codec: "topk", N: 11, Idx: []int32{1}, Vals: []float32{1}}
	if _, err := MergeWith(nil, a, b); !errors.Is(err, ErrMergeLength) {
		t.Fatalf("want ErrMergeLength, got %v", err)
	}
	q := &Compressed{Codec: "int8", N: 10, Q: make([]byte, 10), Scale: 1}
	if _, err := MergeWith(nil, a, q); !errors.Is(err, ErrMergeQuantized) {
		t.Fatalf("want ErrMergeQuantized, got %v", err)
	}
	unsorted := &Compressed{Codec: "topk", N: 10, Idx: []int32{5, 2}, Vals: []float32{1, 1}}
	if _, err := MergeWith(nil, a, unsorted); !errors.Is(err, ErrMergeInvalid) {
		t.Fatalf("want ErrMergeInvalid for unsorted part, got %v", err)
	}
	dup := &Compressed{Codec: "topk", N: 10, Idx: []int32{2, 2}, Vals: []float32{1, 1}}
	if _, err := MergeWith(nil, dup); !errors.Is(err, ErrMergeInvalid) {
		t.Fatalf("want ErrMergeInvalid for duplicate indices, got %v", err)
	}
	oob := &Compressed{Codec: "topk", N: 10, Idx: []int32{12}, Vals: []float32{1}}
	if _, err := MergeWith(nil, oob); !errors.Is(err, ErrMergeInvalid) {
		t.Fatalf("want ErrMergeInvalid for out-of-range index, got %v", err)
	}
	mixed := &Compressed{Codec: "topk", N: 10, Idx: []int32{1}, Vals: []float32{1, 2}}
	if _, err := MergeWith(nil, a, mixed); !errors.Is(err, ErrMergeInvalid) {
		t.Fatalf("want ErrMergeInvalid for idx/vals length mismatch, got %v", err)
	}
}

// --- serial-vs-parallel bit-exactness --------------------------------------

// propPools returns the parallelism grid the issue prescribes: 1, 2, 7, and
// NumCPU workers, with a tiny chunk so fuzzed shapes actually span many
// shards.
func propPools(t *testing.T) []*parallel.Pool {
	t.Helper()
	pools := []*parallel.Pool{nil}
	for _, w := range []int{1, 2, 7, runtime.NumCPU()} {
		p, err := parallel.NewWithChunk(w, 128)
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, p)
	}
	return pools
}

func sameCompressed(a, b *Compressed) error {
	if a.Codec != b.Codec || a.N != b.N {
		return fmt.Errorf("header mismatch: %s/%d vs %s/%d", a.Codec, a.N, b.Codec, b.N)
	}
	if math.Float32bits(a.Scale) != math.Float32bits(b.Scale) {
		return fmt.Errorf("scale bits differ")
	}
	if len(a.Idx) != len(b.Idx) || len(a.Vals) != len(b.Vals) || len(a.Q) != len(b.Q) {
		return fmt.Errorf("payload lengths differ: idx %d/%d vals %d/%d q %d/%d",
			len(a.Idx), len(b.Idx), len(a.Vals), len(b.Vals), len(a.Q), len(b.Q))
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] {
			return fmt.Errorf("idx[%d]: %d vs %d", i, a.Idx[i], b.Idx[i])
		}
	}
	for i := range a.Vals {
		if math.Float32bits(a.Vals[i]) != math.Float32bits(b.Vals[i]) {
			return fmt.Errorf("vals[%d] bits differ", i)
		}
	}
	for i := range a.Q {
		if a.Q[i] != b.Q[i] {
			return fmt.Errorf("q[%d]: %d vs %d", i, a.Q[i], b.Q[i])
		}
	}
	return nil
}

// mergeMapReference is the retired map-based union-sum, kept as the test
// oracle (and benchmark baseline): per index it accumulates in part order,
// exactly like the k-way walk that replaced it.
func mergeMapReference(parts ...*Compressed) *Compressed {
	n := parts[0].N
	sum := make(map[int32]float32)
	for _, p := range parts {
		for i, j := range p.Idx {
			sum[j] += p.Vals[i]
		}
	}
	idx := make([]int32, 0, len(sum))
	for j := range sum {
		idx = append(idx, j)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	vals := make([]float32, len(idx))
	for i, j := range idx {
		vals[i] = sum[j]
	}
	return &Compressed{Codec: "merged", N: n, Idx: idx, Vals: vals}
}

// topKHeapReference is the retired bounded-min-heap Top-K selection, kept
// as the test oracle (and benchmark baseline) for the packed-key
// quickselect that replaced it. Same strict total order: |v| descending,
// lower index wins ties.
func topKHeapReference(g tensor.Vector, k int) []int32 {
	if k >= len(g) {
		idx := make([]int32, len(g))
		for i := range idx {
			idx[i] = int32(i)
		}
		return idx
	}
	weaker := func(a, b int32) bool {
		av, bv := g[a], g[b]
		if av < 0 {
			av = -av
		}
		if bv < 0 {
			bv = -bv
		}
		if av != bv {
			return av < bv
		}
		return a > b // higher index is weaker on ties
	}
	h := make([]int32, 0, k)
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < len(h) && weaker(h[l], h[m]) {
				m = l
			}
			if r < len(h) && weaker(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := 0; i < len(g); i++ {
		j := int32(i)
		if len(h) < k {
			h = append(h, j)
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if !weaker(h[c], h[p]) {
					break
				}
				h[c], h[p] = h[p], h[c]
				c = p
			}
			continue
		}
		if weaker(h[0], j) {
			h[0] = j
			down(0)
		}
	}
	sort.Slice(h, func(a, b int) bool { return h[a] < h[b] })
	return h
}

// TestTopKQuickselectMatchesHeapOracle pins the packed-key quickselect to
// the retired heap selection across shapes that stress the tie-break rule:
// duplicated magnitudes, sign flips, zeros, and denormal-scale values all
// must resolve to the identical index set.
func TestTopKQuickselectMatchesHeapOracle(t *testing.T) {
	r := tensor.NewRNG(77)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(3000)
		g := tensor.New(n)
		// Quantize to few distinct magnitudes so ties are common, and
		// flip signs so |v| ordering is actually exercised.
		levels := 1 + r.Intn(8)
		for i := range g {
			v := float32(r.Intn(levels)) / float32(levels)
			if r.Intn(2) == 0 {
				v = -v
			}
			g[i] = v
		}
		for _, k := range []int{1, 2, n / 7, n / 2, n - 1, n} {
			if k < 1 {
				continue
			}
			got := topKRange(g, 0, n, k)
			want := topKHeapReference(g, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d n=%d k=%d: got %d indices, want %d", trial, n, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d k=%d: index %d: got %d, want %d", trial, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSerialVsParallelProperty(t *testing.T) {
	pools := propPools(t)
	r := tensor.NewRNG(123)
	for trial := 0; trial < 25; trial++ {
		n := 1 + r.Intn(5000)
		g := randVec(r, n)
		rho := 0.005 + 0.4*r.Float64()

		tkSerial, _ := NewTopK(rho)
		wantTK, err := tkSerial.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		wantI8, err := Int8{}.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(trial)
		rkSerial, _ := NewRandK(rho, seed)
		wantRK, err := rkSerial.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		nparts := 2 + r.Intn(6)
		parts := make([]*Compressed, nparts)
		for i := range parts {
			parts[i], err = tkSerial.Compress(randVec(r, n))
			if err != nil {
				t.Fatal(err)
			}
		}
		wantMerge, err := MergeWith(nil, parts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCompressed(wantMerge, mergeMapReference(parts...)); err != nil {
			t.Fatalf("trial %d: k-way merge diverged from map oracle: %v", trial, err)
		}
		var wantWire bytes.Buffer
		if err := wantTK.Encode(&wantWire); err != nil {
			t.Fatal(err)
		}
		wantDense := tensor.New(n)
		if err := wantMerge.AddInto(wantDense); err != nil {
			t.Fatal(err)
		}
		if err := wantI8.AddInto(wantDense); err != nil {
			t.Fatal(err)
		}

		for pi, pool := range pools {
			tag := fmt.Sprintf("trial %d pool %d (workers %d)", trial, pi, pool.Workers())
			tk, _ := NewTopKPooled(rho, pool)
			got, err := tk.Compress(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCompressed(wantTK, got); err != nil {
				t.Fatalf("%s: topk: %v", tag, err)
			}
			rk, _ := NewRandKPooled(rho, seed, pool)
			gotRK, err := rk.Compress(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCompressed(wantRK, gotRK); err != nil {
				t.Fatalf("%s: randk: %v", tag, err)
			}
			gotI8, err := Int8{Pool: pool}.Compress(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCompressed(wantI8, gotI8); err != nil {
				t.Fatalf("%s: int8: %v", tag, err)
			}
			gotMerge, err := MergeWith(pool, parts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCompressed(wantMerge, gotMerge); err != nil {
				t.Fatalf("%s: merge: %v", tag, err)
			}
			var wire bytes.Buffer
			if err := wantTK.EncodeWith(&wire, pool); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantWire.Bytes(), wire.Bytes()) {
				t.Fatalf("%s: encoded bytes differ", tag)
			}
			dec, err := DecodeWith(bytes.NewReader(wire.Bytes()), pool)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCompressed(wantTK, dec); err != nil {
				t.Fatalf("%s: decode: %v", tag, err)
			}
			dense := tensor.New(n)
			if err := wantMerge.AddIntoWith(pool, dense); err != nil {
				t.Fatal(err)
			}
			if err := wantI8.AddIntoWith(pool, dense); err != nil {
				t.Fatal(err)
			}
			for i := range dense {
				if math.Float32bits(dense[i]) != math.Float32bits(wantDense[i]) {
					t.Fatalf("%s: scatter-add bits differ at %d", tag, i)
				}
			}
		}
	}
}

// TestParallelAddIntoRejectsInvalidSparse: the parallel scatter path must
// detect invalid hand-built payloads instead of racing on them.
func TestParallelAddIntoRejectsInvalidSparse(t *testing.T) {
	pool, _ := parallel.NewWithChunk(4, 2)
	dup := &Compressed{Codec: "x", N: 16, Idx: []int32{3, 3, 5, 9}, Vals: []float32{1, 1, 1, 1}}
	if err := dup.AddIntoWith(pool, tensor.New(16)); err == nil {
		t.Fatal("want error for duplicate indices")
	}
	oob := &Compressed{Codec: "x", N: 16, Idx: []int32{3, 4, 5, 99}, Vals: []float32{1, 1, 1, 1}}
	if err := oob.AddIntoWith(pool, tensor.New(16)); err == nil {
		t.Fatal("want error for out-of-range index")
	}
}

// TestPoolSharedAcrossGoroutines drives one pool from many goroutines at
// once — the engine does this with per-worker compressors — and checks
// results stay bit-exact. Run under -race via scripts/check.sh.
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	pool, _ := parallel.NewWithChunk(4, 64)
	const n = 4096
	g := randVec(tensor.NewRNG(3), n)
	tkSerial, _ := NewTopK(0.01)
	want, err := tkSerial.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < len(errs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tk, _ := NewTopKPooled(0.01, pool)
			for it := 0; it < 10; it++ {
				got, err := tk.Compress(g)
				if err != nil {
					errs[w] = err
					return
				}
				if err := sameCompressed(want, got); err != nil {
					errs[w] = err
					return
				}
				out := tensor.New(n)
				if err := got.DecompressWith(pool, out); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", w, err)
		}
	}
}
