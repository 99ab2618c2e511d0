package compress

import (
	"math"
	"testing"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/tensor"
)

// mergeShape builds k sorted parts over n indices: each index goes to a
// part with probability density, and every value is random or, one time in
// four, one of -0, +0, NaN and a denormal.
func mergeShape(r *tensor.RNG, n, k int, density float64, pick func(p, j int) bool) []*Compressed {
	specials := []float32{float32(math.Copysign(0, -1)), 0, float32(math.NaN()), math.Float32frombits(1)}
	parts := make([]*Compressed, k)
	for p := range parts {
		c := &Compressed{Codec: "topk", N: n, Idx: []int32{}, Vals: []float32{}}
		for j := 0; j < n; j++ {
			if !pick(p, j) || r.Float64() >= density {
				continue
			}
			v := r.Float32()*2 - 1
			if r.Intn(4) == 0 {
				v = specials[r.Intn(len(specials))]
			}
			c.Idx = append(c.Idx, int32(j))
			c.Vals = append(c.Vals, v)
		}
		parts[p] = c
	}
	return parts
}

// Merge is one two-way kernel folded left to right over the parts. It
// matches the map reference bit for bit at every part count, on random,
// disjoint, identical and partly empty parts, with -0 and NaN among the
// values.
func TestMergeMatchesReference(t *testing.T) {
	const n = 6_000
	for _, k := range []int{1, 2, 3, 4, 16} {
		same := mergeShape(tensor.NewRNG(uint64(k)), n, 1, 0.9, func(int, int) bool { return true })[0]
		shapes := map[string][]*Compressed{
			"random":   mergeShape(tensor.NewRNG(uint64(k)), n, k, 0.9, func(int, int) bool { return true }),
			"disjoint": mergeShape(tensor.NewRNG(uint64(k)), n, k, 1, func(p, j int) bool { return j%k == p }),
			"some empty": mergeShape(tensor.NewRNG(uint64(k)), n, k, 0.9, func(p, _ int) bool {
				return k == 1 || p%2 == 1
			}),
			"all empty": mergeShape(tensor.NewRNG(uint64(k)), n, k, 0, func(int, int) bool { return false }),
		}
		shapes["identical"] = make([]*Compressed, k)
		for p := range shapes["identical"] {
			shapes["identical"][p] = same
		}
		for name, parts := range shapes {
			got, err := Merge(parts...)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, name, err)
			}
			if err := sameCompressed(got, mergeMapReference(parts...)); err != nil {
				t.Fatalf("k=%d %s: %v", k, name, err)
			}
		}
	}
}

// A two-part merge at the shape the benchmark trains allocates its result
// and nothing else: the Compressed and its two slices, sized to the parts'
// total (rounded up to whole pages).
func TestMergeAllocs(t *testing.T) {
	parts := benchSortedParts(t, workloadGradLen, 2, 0.01)
	total := len(parts[0].Idx) + len(parts[1].Idx)
	allocgate.Check(t, 40, 3.5, float64(8*total+2*8192+128), func() {
		if _, err := Merge(parts...); err != nil {
			t.Fatal(err)
		}
	})
}
