package compress

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"lowdiff/internal/tensor"
)

func randVec(r *tensor.RNG, n int) tensor.Vector {
	v := tensor.New(n)
	r.FillUniform(v, -1, 1)
	return v
}

func TestTopKSelectsLargest(t *testing.T) {
	g := tensor.Vector{0.1, -5, 0.2, 3, -0.05, 4}
	tk, err := NewTopK(0.5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := tk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	// k = ceil(6*0.5) = 3: entries -5, 4, 3 at indices 1, 5, 3.
	wantIdx := []int32{1, 3, 5}
	if len(c.Idx) != 3 {
		t.Fatalf("got %d entries, want 3", len(c.Idx))
	}
	for i := range wantIdx {
		if c.Idx[i] != wantIdx[i] {
			t.Fatalf("idx = %v, want %v", c.Idx, wantIdx)
		}
	}
	if c.Vals[0] != -5 || c.Vals[1] != 3 || c.Vals[2] != 4 {
		t.Fatalf("vals = %v", c.Vals)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTopKTieBreaksTowardLowerIndex(t *testing.T) {
	g := tensor.Vector{1, 1, 1, 1}
	tk, _ := NewTopK(0.5)
	c, err := tk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Idx) != 2 || c.Idx[0] != 0 || c.Idx[1] != 1 {
		t.Fatalf("tie-break idx = %v, want [0 1]", c.Idx)
	}
}

func TestTopKFullRatio(t *testing.T) {
	g := tensor.Vector{3, -1, 2}
	tk, _ := NewTopK(1)
	c, err := tk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Idx) != 3 {
		t.Fatalf("ratio 1 should keep all entries, got %d", len(c.Idx))
	}
	out := tensor.New(3)
	if err := c.Decompress(out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(g) {
		t.Fatalf("full-ratio round trip: got %v", out)
	}
}

func TestTopKMinimumOneEntry(t *testing.T) {
	tk, _ := NewTopK(0.001)
	c, err := tk.Compress(tensor.Vector{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Idx) != 1 || c.Idx[0] != 1 {
		t.Fatalf("tiny ratio should keep the single largest entry, got %v", c.Idx)
	}
}

func TestTopKMatchesSortReference(t *testing.T) {
	r := tensor.NewRNG(8)
	for trial := 0; trial < 20; trial++ {
		n := 50 + r.Intn(200)
		g := randVec(r, n)
		rho := 0.01 + 0.3*r.Float64()
		tk, _ := NewTopK(rho)
		c, err := tk.Compress(g)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: full sort by (|v| desc, index asc).
		ref := make([]int32, n)
		for i := range ref {
			ref[i] = int32(i)
		}
		sort.SliceStable(ref, func(a, b int) bool {
			av := math.Abs(float64(g[ref[a]]))
			bv := math.Abs(float64(g[ref[b]]))
			if av != bv {
				return av > bv
			}
			return ref[a] < ref[b]
		})
		k := len(c.Idx)
		want := append([]int32(nil), ref[:k]...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for i := range want {
			if c.Idx[i] != want[i] {
				t.Fatalf("trial %d: topk disagrees with sort reference", trial)
			}
		}
	}
}

func TestIdentityRoundTrip(t *testing.T) {
	g := randVec(tensor.NewRNG(3), 64)
	c, err := Identity{}.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(64)
	if err := c.Decompress(out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(g) {
		t.Fatal("identity codec must round trip exactly")
	}
	// Result must not alias input.
	g[0] += 1
	if c.Vals[0] == g[0] {
		t.Fatal("identity result aliases input gradient")
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"topk", "identity", "none", ""} {
		if _, err := New(name, 0.1); err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
	}
	for _, name := range []string{"zstd", "randk", "int8"} {
		if _, err := New(name, 0.1); err == nil {
			t.Fatalf("New(%q): want unknown-codec error", name)
		}
	}
	if _, err := NewTopK(0); err == nil {
		t.Fatal("want ratio error")
	}
	if _, err := NewTopK(1.5); err == nil {
		t.Fatal("want ratio error")
	}
	if _, err := NewTopK(math.NaN()); err == nil {
		t.Fatal("want ratio error for NaN")
	}
}

func TestBytesAccounting(t *testing.T) {
	g := randVec(tensor.NewRNG(4), 1000)
	tk, _ := NewTopK(0.01)
	c, _ := tk.Compress(g)
	if c.Bytes() != 10*8 {
		t.Fatalf("topk Bytes = %d, want 80 (10 idx + 10 vals)", c.Bytes())
	}
	id, _ := Identity{}.Compress(g)
	if id.Bytes() != 4000 {
		t.Fatalf("identity Bytes = %d, want 4000", id.Bytes())
	}
}

func TestMergeUnionSums(t *testing.T) {
	a := &Compressed{Codec: "topk", N: 10, Idx: []int32{1, 5}, Vals: []float32{1, 2}}
	b := &Compressed{Codec: "topk", N: 10, Idx: []int32{5, 7}, Vals: []float32{3, 4}}
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	want := map[int32]float32{1: 1, 5: 5, 7: 4}
	if len(m.Idx) != 3 {
		t.Fatalf("merged nnz = %d, want 3", len(m.Idx))
	}
	for i, j := range m.Idx {
		if m.Vals[i] != want[j] {
			t.Fatalf("merged[%d] = %v, want %v", j, m.Vals[i], want[j])
		}
	}
}

func TestMergeErrors(t *testing.T) {
	if _, err := Merge(); err == nil {
		t.Fatal("want error for empty merge")
	}
	a := &Compressed{Codec: "topk", N: 10, Idx: []int32{1}, Vals: []float32{1}}
	b := &Compressed{Codec: "topk", N: 11, Idx: []int32{1}, Vals: []float32{1}}
	if _, err := Merge(a, b); err == nil {
		t.Fatal("want length-mismatch error")
	}
}

func TestMergeDenseMix(t *testing.T) {
	sparse := &Compressed{Codec: "topk", N: 4, Idx: []int32{2}, Vals: []float32{5}}
	dense := &Compressed{Codec: "identity", N: 4, Vals: []float32{1, 1, 1, 1}}
	m, err := Merge(sparse, dense)
	if err != nil {
		t.Fatal(err)
	}
	out := tensor.New(4)
	if err := m.Decompress(out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tensor.Vector{1, 1, 6, 1}) {
		t.Fatalf("dense merge = %v", out)
	}
}

// Property: merging equals summing the decompressed vectors, and merge is
// order-independent (commutative + associative within float tolerance; for
// disjoint or exact sums it is bit-exact because addition order per index
// is index-order deterministic... we check against tolerance).
func TestMergePropertyEqualsDenseSum(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 20 + r.Intn(100)
		parts := make([]*Compressed, 1+r.Intn(5))
		dense := tensor.New(n)
		tk, _ := NewTopK(0.05 + 0.3*r.Float64())
		for i := range parts {
			g := randVec(r, n)
			c, err := tk.Compress(g)
			if err != nil {
				return false
			}
			parts[i] = c
			if err := c.AddInto(dense); err != nil {
				return false
			}
		}
		m, err := Merge(parts...)
		if err != nil {
			return false
		}
		out := tensor.New(n)
		if err := m.Decompress(out); err != nil {
			return false
		}
		md, err := out.MaxAbsDiff(dense)
		return err == nil && md <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWireRoundTrip(t *testing.T) {
	r := tensor.NewRNG(5)
	g := randVec(r, 500)
	cases := []*Compressed{}
	tk, _ := NewTopK(0.05)
	c1, _ := tk.Compress(g)
	cases = append(cases, c1)
	c2, _ := Identity{}.Compress(g)
	cases = append(cases, c2)
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if int64(buf.Len()) != c.EncodedBytes() {
			t.Fatalf("%s: EncodedBytes = %d, wrote %d", c.Codec, c.EncodedBytes(), buf.Len())
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Codec != c.Codec || got.N != c.N {
			t.Fatalf("%s: header mismatch", c.Codec)
		}
		a, b := tensor.New(c.N), tensor.New(c.N)
		if err := c.Decompress(a); err != nil {
			t.Fatal(err)
		}
		if err := got.Decompress(b); err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("%s: decoded gradient differs", c.Codec)
		}
	}
}

func TestWireStreamedRecords(t *testing.T) {
	// Two records back to back on one reader must decode cleanly.
	g := randVec(tensor.NewRNG(6), 100)
	tk, _ := NewTopK(0.1)
	c1, _ := tk.Compress(g)
	c2, _ := Identity{}.Compress(g)
	var buf bytes.Buffer
	if err := c1.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c2.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	d1, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Codec != "topk" || d2.Codec != "identity" {
		t.Fatalf("stream decoded %q, %q", d1.Codec, d2.Codec)
	}
	if buf.Len() != 0 {
		t.Fatalf("stream left %d unread bytes", buf.Len())
	}
}

func TestWireCorruption(t *testing.T) {
	g := randVec(tensor.NewRNG(7), 50)
	tk, _ := NewTopK(0.1)
	c, _ := tk.Compress(g)
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] ^= 0xff
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("want bad-magic error")
	}
	// Truncation at every prefix must error, never panic.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated at %d: want error", cut)
		}
	}
	// Implausible count.
	bad2 := append([]byte(nil), full...)
	// n field sits after magic(4)+ver(2)+len(1)+name(4 for "topk").
	for i := 0; i < 8; i++ {
		bad2[11+i] = 0xff
	}
	if _, err := Decode(bytes.NewReader(bad2)); err == nil {
		t.Fatal("want implausible-count error")
	}
	// A quantized count or scale: nq sits 24 bytes past n, scale 32.
	for _, at := range []int{11 + 24, 11 + 32} {
		q := append([]byte(nil), full...)
		q[at] = 1
		if _, err := Decode(bytes.NewReader(q)); err == nil {
			t.Fatalf("nonzero byte at %d: want quantized-payload error", at)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []*Compressed{
		{Codec: "x", N: -1},
		{Codec: "x", N: 4, Idx: []int32{0, 0}, Vals: []float32{1, 1}}, // not strictly increasing
		{Codec: "x", N: 4, Idx: []int32{3, 1}, Vals: []float32{1, 1}}, // decreasing
		{Codec: "x", N: 4, Idx: []int32{5}, Vals: []float32{1}},       // out of range
		{Codec: "x", N: 4, Idx: []int32{1}, Vals: []float32{1, 2}},    // len mismatch
		{Codec: "x", N: 4, Vals: []float32{1}},                        // dense wrong len
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestCloneDeep(t *testing.T) {
	c := &Compressed{Codec: "topk", N: 4, Idx: []int32{1}, Vals: []float32{2}}
	cl := c.Clone()
	cl.Idx[0] = 3
	cl.Vals[0] = 9
	if c.Idx[0] != 1 || c.Vals[0] != 2 {
		t.Fatal("clone aliases original")
	}
}

func TestAddIntoErrors(t *testing.T) {
	c := &Compressed{Codec: "x", N: 4, Idx: []int32{1}, Vals: []float32{1}}
	if err := c.AddInto(tensor.New(3)); err == nil {
		t.Fatal("want length error")
	}
	badIdx := &Compressed{Codec: "x", N: 4, Idx: []int32{9}, Vals: []float32{1}}
	if err := badIdx.AddInto(tensor.New(4)); err == nil {
		t.Fatal("want range error")
	}
	if err := c.Decompress(tensor.New(3)); err == nil {
		t.Fatal("want decompress length error")
	}
}

// Property: wire round trip is lossless for topk over random vectors.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 10 + r.Intn(200)
		g := randVec(r, n)
		tk, _ := NewTopK(0.01 + 0.5*r.Float64())
		c, err := tk.Compress(g)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(got.Idx) != len(c.Idx) {
			return false
		}
		for i := range c.Idx {
			if got.Idx[i] != c.Idx[i] || got.Vals[i] != c.Vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
