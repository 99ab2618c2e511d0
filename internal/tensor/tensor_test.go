package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"lowdiff/internal/allocgate"
)

func TestNewZeroed(t *testing.T) {
	v := New(16)
	if len(v) != 16 {
		t.Fatalf("len = %d, want 16", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("v[%d] = %v, want 0", i, x)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original storage")
	}
	if !c[1:].Equal(v[1:]) {
		t.Fatal("Clone changed untouched elements")
	}
}

func TestCopyFrom(t *testing.T) {
	v := New(3)
	if err := v.CopyFrom(Vector{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{4, 5, 6}) {
		t.Fatalf("got %v", v)
	}
	if err := v.CopyFrom(Vector{1}); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

func TestAxpy(t *testing.T) {
	v := Vector{1, 2, 3}
	if err := v.Axpy(2, Vector{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{3, 4, 5}) {
		t.Fatalf("got %v", v)
	}
	if err := v.Axpy(1, Vector{1}); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	r := NewRNG(7)
	v := New(100)
	r.FillUniform(v, -1, 1)
	orig := v.Clone()
	d := New(100)
	r.FillUniform(d, -1, 1)
	if err := v.Add(d); err != nil {
		t.Fatal(err)
	}
	if err := v.Sub(d); err != nil {
		t.Fatal(err)
	}
	md, err := v.MaxAbsDiff(orig)
	if err != nil {
		t.Fatal(err)
	}
	if md > 1e-6 {
		t.Fatalf("add/sub round trip drifted by %v", md)
	}
}

func TestScaleZeroFill(t *testing.T) {
	v := Vector{1, 2, 3}
	v.Scale(2)
	if !v.Equal(Vector{2, 4, 6}) {
		t.Fatalf("got %v", v)
	}
	v.Fill(7)
	if !v.Equal(Vector{7, 7, 7}) {
		t.Fatalf("got %v", v)
	}
	v.Zero()
	if !v.Equal(Vector{0, 0, 0}) {
		t.Fatalf("got %v", v)
	}
}

func TestDotNorm(t *testing.T) {
	v := Vector{3, 4}
	d, err := v.Dot(v)
	if err != nil {
		t.Fatal(err)
	}
	if d != 25 {
		t.Fatalf("dot = %v, want 25", d)
	}
	if n := v.Norm2(); math.Abs(n-5) > 1e-12 {
		t.Fatalf("norm = %v, want 5", n)
	}
	if _, err := v.Dot(Vector{1}); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

func TestAbsMax(t *testing.T) {
	if m := (Vector{}).AbsMax(); m != 0 {
		t.Fatalf("empty AbsMax = %v", m)
	}
	if m := (Vector{1, -7, 3}).AbsMax(); m != 7 {
		t.Fatalf("AbsMax = %v, want 7", m)
	}
}

func TestChunksCoverExactly(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{{10, 3}, {10, 10}, {3, 5}, {0, 2}, {1024, 7}} {
		v := New(tc.n)
		for i := range v {
			v[i] = float32(i)
		}
		chunks, err := v.Chunks(tc.parts)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != tc.parts {
			t.Fatalf("got %d chunks, want %d", len(chunks), tc.parts)
		}
		total := 0
		for _, c := range chunks {
			for _, x := range c {
				if int(x) != total {
					t.Fatalf("chunks out of order: saw %v at flat index %d", x, total)
				}
				total++
			}
		}
		if total != tc.n {
			t.Fatalf("chunks cover %d elements, want %d", total, tc.n)
		}
	}
	if _, err := New(4).Chunks(0); err == nil {
		t.Fatal("want error for 0 chunks")
	}
}

func TestChunksAlias(t *testing.T) {
	v := New(8)
	chunks, err := v.Chunks(2)
	if err != nil {
		t.Fatal(err)
	}
	chunks[1][0] = 42
	if v[4] != 42 {
		t.Fatal("chunk does not alias parent storage")
	}
}

func TestGatherScatter(t *testing.T) {
	v := Vector{10, 20, 30, 40}
	out := New(2)
	if err := v.Gather([]int32{3, 1}, out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(Vector{40, 20}) {
		t.Fatalf("gather got %v", out)
	}
	if err := v.ScatterAdd([]int32{0, 0, 2}, Vector{1, 1, 5}); err != nil {
		t.Fatal(err)
	}
	if !v.Equal(Vector{12, 20, 35, 40}) {
		t.Fatalf("scatter got %v", v)
	}
	if err := v.Gather([]int32{9}, New(1)); err == nil {
		t.Fatal("want out-of-range error")
	}
	if err := v.ScatterAdd([]int32{-1}, New(1)); err == nil {
		t.Fatal("want out-of-range error")
	}
}

func TestEqualSemantics(t *testing.T) {
	a := Vector{1, 2}
	if a.Equal(Vector{1}) {
		t.Fatal("different lengths must not be equal")
	}
	nan := float32(math.NaN())
	if (Vector{nan}).Equal(Vector{nan}) {
		t.Fatal("NaN must compare unequal")
	}
}

// Property: gather after scatter-add of disjoint indices recovers the values.
func TestScatterGatherProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 32 + r.Intn(96)
		v := New(n)
		k := 1 + r.Intn(n)
		perm := r.Perm(n)
		idx := make([]int32, k)
		vals := New(k)
		for i := 0; i < k; i++ {
			idx[i] = int32(perm[i])
			vals[i] = r.Float32()*2 - 1
		}
		if err := v.ScatterAdd(idx, vals); err != nil {
			return false
		}
		out := New(k)
		if err := v.Gather(idx, out); err != nil {
			return false
		}
		return out.Equal(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Chunks always partitions the vector for any sizes.
func TestChunksProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := r.Intn(500)
		parts := 1 + r.Intn(20)
		v := New(n)
		chunks, err := v.Chunks(parts)
		if err != nil {
			return false
		}
		sum := 0
		for _, c := range chunks {
			sum += len(c)
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if f := r.Float32(); f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
		if n := r.Intn(10); n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %v", n)
		}
		if e := r.Exp(2); e < 0 {
			t.Fatalf("Exp negative: %v", e)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(5)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		x := r.Normal()
		sum += x
		sq += x * x
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(3.5)
	}
	if mean := sum / n; math.Abs(mean-3.5) > 0.1 {
		t.Fatalf("exp mean = %v, want ~3.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, x := range p {
		if x < 0 || x >= 50 || seen[x] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[x] = true
	}
}

func TestFillDistributions(t *testing.T) {
	r := NewRNG(3)
	v := New(10000)
	r.FillUniform(v, -2, 2)
	for _, x := range v {
		if x < -2 || x >= 2 {
			t.Fatalf("uniform fill out of range: %v", x)
		}
	}
	r.FillNormal(v, 1, 0.5)
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	if mean := sum / float64(len(v)); math.Abs(mean-1) > 0.05 {
		t.Fatalf("normal fill mean = %v, want ~1", mean)
	}
}

// Equal is float comparison; Identical is bit comparison: it tells the
// signed zeros apart and matches a NaN with itself.
func TestIdenticalComparesBits(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	if !(Vector{0}).Equal(Vector{negZero}) || (Vector{0}).Identical(Vector{negZero}) {
		t.Fatal("+0 and -0: Equal must hold, Identical must not")
	}
	if (Vector{nan}).Equal(Vector{nan}) || !(Vector{nan}).Identical(Vector{nan}) {
		t.Fatal("one NaN: Equal must not hold, Identical must")
	}
	if (Vector{1, 2}).Identical(Vector{1}) || !(Vector{1, negZero}).Identical(Vector{1, negZero}) {
		t.Fatal("Identical: length or equal bits misjudged")
	}
}

// FillUniform equals the per-element loop it replaced, lo + span*Float32()
// per element, bit for bit at every length 0–67 and over ranges that
// include a signed zero, and leaves the generator where that loop leaves
// it: consecutive fills continue one stream, as Params.InitUniform's
// per-layer fills do.
func TestFillUniformMatchesFloat32Loop(t *testing.T) {
	for _, rng := range [][2]float32{{-0.5, 0.5}, {-2, 2}, {0, 1}, {float32(math.Copysign(0, -1)), 3}, {-1e-30, 1e30}} {
		lo, hi := rng[0], rng[1]
		span := hi - lo
		fill, ref := NewRNG(17), NewRNG(17)
		for n := 0; n <= 67; n++ {
			got, want := New(n), New(n)
			fill.FillUniform(got, lo, hi)
			for i := range want {
				want[i] = lo + span*ref.Float32()
			}
			if !got.Identical(want) {
				t.Fatalf("[%v, %v) n %d: FillUniform differs from the Float32 loop\ngot  %v\nwant %v", lo, hi, n, got, want)
			}
			if fill.state != ref.state {
				t.Fatalf("[%v, %v) n %d: state %#x after the fill, want %#x", lo, hi, n, fill.state, ref.state)
			}
		}
	}
}

// One fill at the benchmark's model size, pinned: the hash and the next
// draw were taken from the per-element loop.
func TestFillUniformSHA256(t *testing.T) {
	r := NewRNG(1)
	v := New(1_169_955)
	r.FillUniform(v, -0.5, 0.5)
	h := sha256.New()
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	const want = "9c02a3ec67d221d81934df01b3f9118a4ee3b5c8d5cbc70dc100a749858db7e1"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("fill SHA-256 = %s, want %s", got, want)
	}
	if next := r.Uint64(); next != 9215328106336789369 {
		t.Fatalf("draw after the fill = %d, want 9215328106336789369", next)
	}
}

// BenchmarkFillUniform fills one vector of the benchmark's model size
// (GPT2-S at 1/100), the set-up fill of the oracle's target and of each
// worker's parameters.
func BenchmarkFillUniform(b *testing.B) {
	v := New(1_169_955)
	r := NewRNG(1)
	b.SetBytes(int64(len(v) * 4))
	for i := 0; i < b.N; i++ {
		r.FillUniform(v, -0.5, 0.5)
	}
}

var (
	sinkF64    float64
	sinkVec    Vector
	sinkChunks []Vector
	sinkPerm   []int
	sinkRNG    *RNG
)

// TestVectorAllocs holds the package at its allocation counts. Every
// operation that writes into memory the caller owns allocates nothing, and
// each constructor allocates just what it returns. Each bound is the
// measured count plus half an object and the measured bytes plus 512, so
// one more allocation in any one call fails it.
func TestVectorAllocs(t *testing.T) {
	const n = 4096
	r := NewRNG(3)
	a, b := New(n), New(n)
	r.FillUniform(a, -1, 1)
	r.FillUniform(b, -1, 1)
	idx := []int32{1, 7, 4095}
	out := New(len(idx))
	t.Run("in_place", func(t *testing.T) {
		allocgate.Check(t, 100, 0.5, 512, func() {
			_ = b.CopyFrom(a)
			b.Zero()
			b.Fill(0.5)
			_ = b.Axpy(0.25, a)
			_ = b.Add(a)
			_ = b.Sub(a)
			b.Scale(0.5)
			d, _ := b.Dot(a)
			m, _ := b.MaxAbsDiff(a)
			sinkF64 = d + m + b.Norm2() + float64(b.AbsMax())
			if b.Equal(a) || b.Identical(a) {
				t.Fatal("distinct vectors compare equal")
			}
			_ = a.Gather(idx, out)
			_ = b.ScatterAdd(idx, out)
			sinkF64 += r.Float64() + float64(r.Float32()) + float64(r.Intn(9)) + r.Normal() + r.Exp(1) +
				float64(Unit32(Mix64(r.Uint64())))
			r.FillUniform(b, -1, 1)
			r.FillNormal(out, 0, 1)
		})
	})
	t.Run("fresh", func(t *testing.T) {
		// New, Clone, Chunks, Perm and NewRNG: 5 objects, 32,936 B.
		allocgate.Check(t, 100, 5.5, 33_448, func() {
			sinkVec = New(n)
			sinkVec = a.Clone()
			sinkChunks, _ = a.Chunks(4)
			sinkPerm = r.Perm(8)
			sinkRNG = NewRNG(1)
		})
	})
}
