package compress

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
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
}

// --- typed merge errors ---------------------------------------------------

func TestMergeTypedErrors(t *testing.T) {
	if _, err := Merge(); !errors.Is(err, ErrMergeEmpty) {
		t.Fatalf("want ErrMergeEmpty, got %v", err)
	}
	a := &Compressed{Codec: "topk", N: 10, Idx: []int32{1}, Vals: []float32{1}}
	b := &Compressed{Codec: "topk", N: 11, Idx: []int32{1}, Vals: []float32{1}}
	if _, err := Merge(a, b); !errors.Is(err, ErrMergeLength) {
		t.Fatalf("want ErrMergeLength, got %v", err)
	}
	unsorted := &Compressed{Codec: "topk", N: 10, Idx: []int32{5, 2}, Vals: []float32{1, 1}}
	if _, err := Merge(a, unsorted); !errors.Is(err, ErrMergeInvalid) {
		t.Fatalf("want ErrMergeInvalid for unsorted part, got %v", err)
	}
	dup := &Compressed{Codec: "topk", N: 10, Idx: []int32{2, 2}, Vals: []float32{1, 1}}
	if _, err := Merge(dup); !errors.Is(err, ErrMergeInvalid) {
		t.Fatalf("want ErrMergeInvalid for duplicate indices, got %v", err)
	}
	oob := &Compressed{Codec: "topk", N: 10, Idx: []int32{12}, Vals: []float32{1}}
	if _, err := Merge(oob); !errors.Is(err, ErrMergeInvalid) {
		t.Fatalf("want ErrMergeInvalid for out-of-range index, got %v", err)
	}
	mixed := &Compressed{Codec: "topk", N: 10, Idx: []int32{1}, Vals: []float32{1, 2}}
	if _, err := Merge(a, mixed); !errors.Is(err, ErrMergeInvalid) {
		t.Fatalf("want ErrMergeInvalid for idx/vals length mismatch, got %v", err)
	}
}

// --- serial-vs-parallel bit-exactness --------------------------------------

// propPools returns the scatter-add's parallelism grid: 1, 2, 7, and
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
	if len(a.Idx) != len(b.Idx) || len(a.Vals) != len(b.Vals) {
		return fmt.Errorf("payload lengths differ: idx %d/%d vals %d/%d",
			len(a.Idx), len(b.Idx), len(a.Vals), len(b.Vals))
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
// as the benchmark baseline for the sampled-threshold select that replaced
// it. Same strict total order: |v| descending, lower index wins ties.
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

// strengthRanks returns each entry's place in g's strength order, the
// strict total order the select keeps: |v| bits descending, the lower
// index first among equal magnitudes. The k strongest entries are those
// ranked below k, so one sort checks the select at every k.
func strengthRanks(g tensor.Vector) []int32 {
	keys := make([]uint64, len(g))
	for i, v := range g {
		keys[i] = uint64(math.Float32bits(v)&^(1<<31))<<32 | uint64(^uint32(i))
	}
	slices.Sort(keys) // weakest first
	ranks := make([]int32, len(g))
	for j, key := range keys {
		ranks[^uint32(key)] = int32(len(g) - 1 - j)
	}
	return ranks
}

// checkTopKOracle fails t unless the sampled-threshold select picks the k
// strongest entries of g, in index order, and returns each picked entry's
// value bits.
func checkTopKOracle(t *testing.T, tag string, g tensor.Vector, k int) {
	t.Helper()
	checkTopKRanked(t, tag, g, strengthRanks(g), k)
}

// checkTopKRanked is checkTopKOracle against ranks, g's strengthRanks.
func checkTopKRanked(t *testing.T, tag string, g tensor.Vector, ranks []int32, k int) {
	t.Helper()
	got, vals := topKSelect(g, k)
	want := min(k, len(g))
	if len(got) != want || len(vals) != want {
		t.Fatalf("%s n=%d k=%d: got %d indices and %d values, want %d", tag, len(g), k, len(got), len(vals), want)
	}
	for i, j := range got {
		// k distinct indices, each ranked below k, are the k strongest.
		if j < 0 || int(j) >= len(g) || (i > 0 && j <= got[i-1]) || int(ranks[j]) >= k {
			t.Fatalf("%s n=%d k=%d: index %d: got %d, which is out of order or not among the k strongest", tag, len(g), k, i, j)
		}
		if math.Float32bits(vals[i]) != math.Float32bits(g[j]) {
			t.Fatalf("%s n=%d k=%d: value %d: got %v, want g[%d] = %v", tag, len(g), k, i, vals[i], got[i], g[got[i]])
		}
	}
}

// magnitudeCuts returns, for each distinct |v| of g from the strongest
// down, the number of entries at or above it: the k at which that
// magnitude's ties exactly complete the selection.
func magnitudeCuts(g tensor.Vector) []int {
	count := map[uint32]int{}
	for _, v := range g {
		count[math.Float32bits(v)&^(1<<31)]++
	}
	mags := make([]uint32, 0, len(count))
	for m := range count {
		mags = append(mags, m)
	}
	sort.Slice(mags, func(i, j int) bool { return mags[i] > mags[j] })
	cuts, sum := make([]int, len(mags)), 0
	for i, m := range mags {
		sum += count[m]
		cuts[i] = sum
	}
	return cuts
}

// edgeShapes are the value distributions the edge tests draw from: one
// magnitude everywhere, a few magnitudes with many ties, the special
// values (±0, denormals, ±Inf), and the workload's uniform noise around 1.
func edgeShapes(r *tensor.RNG) []struct {
	name string
	draw func() float32
} {
	one := float32(1)
	below := math.Nextafter32(1, 0)
	special := []float32{0, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		-math.SmallestNonzeroFloat32, 1e-40, -3e-39, float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, one, -below}
	pick := func(vals ...float32) func() float32 {
		return func() float32 { return vals[r.Intn(len(vals))] }
	}
	return []struct {
		name string
		draw func() float32
	}{
		{"constant", pick(0.75)},
		{"signed-constant", pick(0.75, -0.75)},
		{"straddle", pick(one, -below, below, 0.5, -0.25)},
		{"special", pick(special...)},
		{"uniform", func() float32 { return 4*r.Float32() - 1 }},
	}
}

// TestTopKSelectUnsampledEdges pins the select to the strength ranking below
// sampleMin, where every entry is a candidate: one magnitude everywhere,
// ties that exactly complete k (and k one either side of that), and the
// special values.
func TestTopKSelectUnsampledEdges(t *testing.T) {
	r := tensor.NewRNG(31)
	for _, shape := range edgeShapes(r) {
		for _, n := range []int{1, 2, 3, 17, 300, 2500} {
			g := tensor.New(n)
			for i := range g {
				g[i] = shape.draw()
			}
			ks := []int{1, n - 1, n, n / 3}
			cuts := magnitudeCuts(g)
			for i := 0; i < len(cuts); i += 1 + len(cuts)/20 {
				ks = append(ks, cuts[i]-1, cuts[i], cuts[i]+1)
			}
			ranks := strengthRanks(g)
			for _, k := range ks {
				if k >= 1 && k <= n {
					checkTopKRanked(t, shape.name, g, ranks, k)
				}
			}
		}
	}
}

// reaching counts g's entries whose |v| bits reach t.
func reaching(g tensor.Vector, t uint32) int {
	c := 0
	for _, v := range g {
		if math.Float32bits(v)&^(1<<31) >= t {
			c++
		}
	}
	return c
}

// TestTopKSelectSampledEdges pins the sampled path to the strength
// ranking, one sort per vector: n
// where sampling starts, 256 Ki and the workload's length; the edge shapes
// (a constant gradient keeps every entry, so the key buffer grows to n);
// and k at 1, at ρ = 0.01, around the count the threshold keeps, where the
// sample rank nears the sample size, and at n − 1 and n. A sample that lies
// must send keepAtLeast down its keep-everything retry.
func TestTopKSelectSampledEdges(t *testing.T) {
	t.Run("lying-sample", testLyingSample)
	r := tensor.NewRNG(47)
	sizes := []int{sampleMin - 1, sampleMin, sampleMin + 1, 1 << 18, workloadGradLen}
	for _, shape := range edgeShapes(r) {
		for _, n := range sizes {
			g := tensor.New(n)
			for i := range g {
				g[i] = shape.draw()
			}
			s := new(topKScratch)
			kept := reaching(g, s.threshold(g, n/100))
			ks := []int{1, n / 100, kept - 1, kept, kept + 1, n - 1, n}
			// Near the largest k whose sample rank stays below the sample size.
			if kr := int(float64(n) * 0.937); kr > 0 {
				ks = append(ks, kr)
			}
			ranks := strengthRanks(g)
			for _, k := range ks {
				if k >= 1 && k <= n {
					checkTopKRanked(t, shape.name, g, ranks, k)
				}
			}
		}
	}
}

// testLyingSample plants the strongest entries exactly at the sampled
// positions, so the threshold lets fewer than k entries through.
// keepAtLeast must then keep every entry, and the select still pick the k
// strongest.
func testLyingSample(t *testing.T) {
	for _, n := range []int{sampleMin, 1 << 18} {
		g := tensor.New(n)
		tensor.NewRNG(5).FillUniform(g, -1, 1)
		stride := n / sampleSize
		for i := 0; i < sampleSize; i++ {
			g[i*stride] = float32(2 + i)
		}
		k := n / 100
		s := new(topKScratch)
		th := s.threshold(g, k)
		if c := reaching(g, th); c >= k {
			t.Fatalf("n=%d: %d entries reach the threshold, want fewer than k=%d", n, c, k)
		}
		if kept := s.keepAtLeast(g, k, th); len(kept) != n {
			t.Fatalf("n=%d: keepAtLeast kept %d keys, want all %d", n, len(kept), n)
		}
		checkTopKOracle(t, "lying", g, k)
	}
}

// TestTopKSelectUnalignedHead runs the select over gradients that start
// off the 8-byte boundary, so the filter kernel's loads are unaligned, and
// over lengths that leave every tail length to keepBlock. The entries of
// every head and tail are the strongest, so the result holds each of them
// exactly once.
func TestTopKSelectUnalignedHead(t *testing.T) {
	base := workloadGrad(sampleMin + 64)
	for i := range base {
		if i < 2 || i >= sampleMin-9 {
			base[i] = float32(10 + i)
		}
	}
	for off := 0; off < 2; off++ {
		for tail := 0; tail < 9; tail++ {
			g := base[off : sampleMin+off+tail]
			checkTopKOracle(t, fmt.Sprintf("off=%d tail=%d", off, tail), g, len(g)/100)
		}
	}
}

// TestTopKQuickselectMatchesHeapOracle pins the select to the strength
// ranking (the order the retired heap selection kept) across shapes that
// stress the tie-break rule: duplicated magnitudes, sign flips, zeros, and
// denormal-scale values all must resolve to the identical index set.
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
		ranks := strengthRanks(g)
		for _, k := range []int{1, 2, n / 7, n / 2, n - 1, n} {
			if k >= 1 {
				checkTopKRanked(t, fmt.Sprintf("trial %d", trial), g, ranks, k)
			}
		}
	}
}

// TestSerialVsParallelProperty: on random shapes, the k-way merge matches
// the map oracle, and recovery's pooled scatter-add (AddIntoWith) writes
// what the serial AddInto writes, bit for bit, at every pool width.
func TestSerialVsParallelProperty(t *testing.T) {
	pools := propPools(t)
	r := tensor.NewRNG(123)
	for trial := 0; trial < 25; trial++ {
		n := 1 + r.Intn(5000)
		g := randVec(r, n)
		rho := 0.005 + 0.4*r.Float64()

		tkSerial, _ := NewTopK(rho)
		wantID, err := Identity{}.Compress(g)
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
		wantMerge, err := Merge(parts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCompressed(wantMerge, mergeMapReference(parts...)); err != nil {
			t.Fatalf("trial %d: k-way merge diverged from map oracle: %v", trial, err)
		}
		wantDense := tensor.New(n)
		if err := wantMerge.AddInto(wantDense); err != nil {
			t.Fatal(err)
		}
		if err := wantID.AddInto(wantDense); err != nil {
			t.Fatal(err)
		}

		for pi, pool := range pools {
			tag := fmt.Sprintf("trial %d pool %d (workers %d)", trial, pi, pool.Workers())
			dense := tensor.New(n)
			if err := wantMerge.AddIntoWith(pool, dense); err != nil {
				t.Fatal(err)
			}
			if err := wantID.AddIntoWith(pool, dense); err != nil {
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

// TestDecompressDenseOnePass: the one-pass dense Decompress writes what
// Zero then AddInto write, bit for bit, on signed zeros, NaN payloads, denormals and infinities. A plain copy
// would fail on −0, which 0 + −0 turns into +0.
func TestDecompressDenseOnePass(t *testing.T) {
	specials := []uint32{
		0x80000000, 0x00000000, // −0, +0
		0x7fc00001, 0xffc12345, 0x7f800001, 0xff9abcde, // quiet and signalling NaNs with payloads
		0x00000001, 0x807fffff, 0x00400000, 0x80000001, // denormals
		0x7f800000, 0xff800000, 0x7f7fffff, 0x00800000, // ±Inf, max, min normal
	}
	const n = 3001
	vals := make([]float32, n)
	tensor.NewRNG(7).FillUniform(vals, -1, 1)
	for i := range vals {
		if i%3 == 0 {
			vals[i] = math.Float32frombits(specials[(i/3)%len(specials)])
		}
	}
	for _, m := range []int{0, 1, len(specials), n} {
		c := &Compressed{Codec: "identity", N: m, Vals: vals[:m]}
		want := tensor.New(m)
		want.Zero()
		if err := c.AddInto(want); err != nil {
			t.Fatal(err)
		}
		got := tensor.New(m)
		for i := range got {
			got[i] = math.Float32frombits(0x7fc0dead) // stale contents
		}
		if err := c.Decompress(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: out[%d] = %#08x, want %#08x (input %#08x)",
					m, i, math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(vals[i]))
			}
		}
		if m > 0 && math.Float32bits(got[0]) != 0 {
			t.Fatalf("n=%d: −0 decompressed to %#08x, want +0", m, math.Float32bits(got[0]))
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

// TestPoolSharedAcrossGoroutines drives one pool's scatter-add from many
// goroutines at once, each beside its own compressor, and checks results
// stay bit-exact. Run under -race via scripts/check.sh.
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
			tk, _ := NewTopK(0.01)
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
				if err := got.AddIntoWith(pool, out); err != nil {
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
