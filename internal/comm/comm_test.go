package comm

import (
	"sync"
	"testing"
	"testing/quick"

	"lowdiff/internal/compress"
	"lowdiff/internal/tensor"
)

// runRanks executes fn on every rank in its own goroutine and propagates
// the first error.
func runRanks(t *testing.T, n int, fn func(rank int) error) {
	t.Helper()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(rank)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

func TestNewGroupRejectsBadSize(t *testing.T) {
	if _, err := NewGroup(0); err == nil {
		t.Fatal("want size error")
	}
	if _, err := NewGroup(-3); err == nil {
		t.Fatal("want size error")
	}
}

func TestRankValidation(t *testing.T) {
	g, _ := NewGroup(2)
	if err := g.Barrier(2); err == nil {
		t.Fatal("want rank error")
	}
	if err := g.AllReduceSum(-1, tensor.New(1)); err == nil {
		t.Fatal("want rank error")
	}
	if _, err := g.AllGatherSparse(5, nil); err == nil {
		t.Fatal("want rank error")
	}
}

func TestAllReduceSum(t *testing.T) {
	const n = 4
	const m = 100
	g, err := NewGroup(n)
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([]tensor.Vector, n)
	want := tensor.New(m)
	for r := 0; r < n; r++ {
		rng := tensor.NewRNG(uint64(r + 1))
		vecs[r] = tensor.New(m)
		rng.FillUniform(vecs[r], -1, 1)
		if err := want.Add(vecs[r]); err != nil {
			t.Fatal(err)
		}
	}
	runRanks(t, n, func(rank int) error {
		return g.AllReduceSum(rank, vecs[rank])
	})
	for r := 0; r < n; r++ {
		if !vecs[r].Equal(vecs[0]) {
			t.Fatalf("rank %d result differs from rank 0", r)
		}
		md, _ := vecs[r].MaxAbsDiff(want)
		if md > 1e-6 {
			t.Fatalf("rank %d sum off by %v", r, md)
		}
	}
}

func TestRingAllReduceSumMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		for _, m := range []int{1, 5, 64, 257} {
			if m < n {
				continue
			}
			g, err := NewGroup(n)
			if err != nil {
				t.Fatal(err)
			}
			vecs := make([]tensor.Vector, n)
			want := tensor.New(m)
			for r := 0; r < n; r++ {
				rng := tensor.NewRNG(uint64(n*1000 + m*10 + r))
				vecs[r] = tensor.New(m)
				rng.FillUniform(vecs[r], -1, 1)
				_ = want.Add(vecs[r])
			}
			runRanks(t, n, func(rank int) error {
				return g.RingAllReduceSum(rank, vecs[rank])
			})
			for r := 0; r < n; r++ {
				if !vecs[r].Equal(vecs[0]) {
					t.Fatalf("n=%d m=%d: rank %d not bit-identical to rank 0", n, m, r)
				}
				md, _ := vecs[r].MaxAbsDiff(want)
				if md > 1e-5 {
					t.Fatalf("n=%d m=%d: rank %d off by %v", n, m, r, md)
				}
			}
		}
	}
}

func TestRingAllReduceShortVector(t *testing.T) {
	// Vector shorter than the ring (some chunks empty) must still work.
	const n = 5
	g, _ := NewGroup(n)
	vecs := make([]tensor.Vector, n)
	for r := 0; r < n; r++ {
		vecs[r] = tensor.Vector{1, 2} // len 2 < 5 ranks
	}
	runRanks(t, n, func(rank int) error {
		return g.RingAllReduceSum(rank, vecs[rank])
	})
	for r := 0; r < n; r++ {
		if vecs[r][0] != 5 || vecs[r][1] != 10 {
			t.Fatalf("rank %d = %v, want [5 10]", r, vecs[r])
		}
	}
}

func TestAllGatherSparseMergesAndAverages(t *testing.T) {
	const n = 2
	g, _ := NewGroup(n)
	ins := []*compress.Compressed{
		{Codec: "topk", N: 6, Idx: []int32{0, 3}, Vals: []float32{2, 4}},
		{Codec: "topk", N: 6, Idx: []int32{3, 5}, Vals: []float32{6, 8}},
	}
	outs := make([]*compress.Compressed, n)
	runRanks(t, n, func(rank int) error {
		m, err := g.AllGatherSparse(rank, ins[rank])
		outs[rank] = m
		return err
	})
	// Union {0,3,5}, sums {2,10,8}, averaged by n=2 -> {1,5,4}.
	for r := 0; r < n; r++ {
		m := outs[r]
		if len(m.Idx) != 3 || m.Idx[0] != 0 || m.Idx[1] != 3 || m.Idx[2] != 5 {
			t.Fatalf("rank %d idx = %v", r, m.Idx)
		}
		if m.Vals[0] != 1 || m.Vals[1] != 5 || m.Vals[2] != 4 {
			t.Fatalf("rank %d vals = %v", r, m.Vals)
		}
	}
	// Results on different ranks must be equal but independent copies.
	outs[0].Vals[0] = 99
	if outs[1].Vals[0] == 99 {
		t.Fatal("ranks share the merged gradient storage")
	}
}

func TestBarrierReusable(t *testing.T) {
	const n = 3
	g, _ := NewGroup(n)
	counter := make([]int, n)
	runRanks(t, n, func(rank int) error {
		for i := 0; i < 50; i++ {
			if err := g.Barrier(rank); err != nil {
				return err
			}
			counter[rank]++
		}
		return nil
	})
	for r := 0; r < n; r++ {
		if counter[r] != 50 {
			t.Fatalf("rank %d completed %d barriers", r, counter[r])
		}
	}
}

func TestMismatchedLengthsError(t *testing.T) {
	const n = 2
	g, _ := NewGroup(n)
	vecs := []tensor.Vector{tensor.New(4), tensor.New(5)}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = g.AllReduceSum(rank, vecs[rank])
		}(r)
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("want length-mismatch error on at least one rank")
	}
}

// Property: ring all-reduce agrees with the centralized reference within
// float tolerance for random sizes and contents.
func TestRingMatchesCentralizedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 2 + r.Intn(5)
		m := n + r.Intn(200)
		ring := make([]tensor.Vector, n)
		central := make([]tensor.Vector, n)
		for i := 0; i < n; i++ {
			v := tensor.New(m)
			r.FillUniform(v, -1, 1)
			ring[i] = v.Clone()
			central[i] = v.Clone()
		}
		g1, _ := NewGroup(n)
		g2, _ := NewGroup(n)
		var wg sync.WaitGroup
		okRing := make([]bool, n)
		okCentral := make([]bool, n)
		for i := 0; i < n; i++ {
			wg.Add(2)
			go func(rank int) {
				defer wg.Done()
				okRing[rank] = g1.RingAllReduceSum(rank, ring[rank]) == nil
			}(i)
			go func(rank int) {
				defer wg.Done()
				okCentral[rank] = g2.AllReduceSum(rank, central[rank]) == nil
			}(i)
		}
		wg.Wait()
		for i := 0; i < n; i++ {
			if !okRing[i] || !okCentral[i] {
				return false
			}
			md, err := ring[i].MaxAbsDiff(central[i])
			if err != nil || md > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
