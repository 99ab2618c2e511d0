package comm

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/compress"
	"lowdiff/internal/model"
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

// AllReduceSum is the reference the ring is checked against: it replaces
// v on every rank with the elementwise sum of all ranks' v, accumulated in
// rank order through one rendezvous, so every rank computes a
// bit-identical result. Vectors must have equal length on all ranks.
func (g *Group) AllReduceSum(rank int, v tensor.Vector) error {
	if err := g.checkRank(rank); err != nil {
		return err
	}
	all := g.exchange(rank, v)
	first := all[0].(tensor.Vector)
	for r := 1; r < g.n; r++ {
		if len(all[r].(tensor.Vector)) != len(first) {
			return fmt.Errorf("comm: allreduce length mismatch: rank %d has %d, rank 0 has %d",
				r, len(all[r].(tensor.Vector)), len(first))
		}
	}
	// Segment scatter-add: each shard owns [lo, hi) of the sum and adds the
	// ranks' segments in rank order, so the result is bit-identical to the
	// serial rank-order accumulation at any worker count.
	sum := tensor.New(len(first))
	vecs := make([]tensor.Vector, g.n)
	for r := 0; r < g.n; r++ {
		vecs[r] = all[r].(tensor.Vector)
	}
	g.pool.ForEach(len(first), func(_, lo, hi int) {
		for _, src := range vecs { // rank order
			for i := lo; i < hi; i++ {
				sum[i] += src[i]
			}
		}
	})
	// Every rank writes its own v only after computing the sum from the
	// snapshot; a barrier keeps writers from racing readers of the inputs.
	g.exchange(rank, nil)
	copy(v, sum)
	g.exchange(rank, nil)
	return nil
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

// ringCall runs one ring all-reduce on every rank of g and returns each
// rank's error, failing t if the ranks do not all return within a
// deadline.
func ringCall(t *testing.T, g *Group, mean bool, vecs []tensor.Vector) []error {
	t.Helper()
	errs := make([]error, g.Size())
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := range vecs {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				if mean {
					errs[rank] = g.RingAllReduceMean(rank, vecs[rank])
				} else {
					errs[rank] = g.RingAllReduceSum(rank, vecs[rank])
				}
			}(r)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("ring all-reduce deadlocked")
	}
	return errs
}

// A length mismatch anywhere in the ring must reach every rank as an
// error, and no rank may block; the group stays usable afterwards.
func TestRingMismatchedLengthsError(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		same := func(m int) []int {
			l := make([]int, n)
			for r := range l {
				l[r] = m
			}
			return l
		}
		first, last, all, empty := same(7), same(7), same(7), same(n+3)
		first[0], last[n-1], empty[1] = 8, 8, 0
		for r := range all {
			all[r] = 7 + r
		}
		for name, lens := range map[string][]int{"first": first, "last": last, "all": all, "empty": empty} {
			for _, mean := range []bool{false, true} {
				g, _ := NewGroup(n)
				vecs := make([]tensor.Vector, n)
				for r := range vecs {
					vecs[r] = tensor.New(lens[r])
				}
				for r, err := range ringCall(t, g, mean, vecs) {
					if err == nil {
						t.Fatalf("n=%d %s mean=%v: rank %d returned no error", n, name, mean, r)
					}
				}
				for r := range vecs {
					vecs[r] = tensor.Vector{float32(r), 1}
				}
				for r, err := range ringCall(t, g, false, vecs) {
					if err != nil {
						t.Fatalf("n=%d %s mean=%v: call after the mismatch: rank %d: %v", n, name, mean, r, err)
					}
				}
				if want := float32(n * (n - 1) / 2); vecs[0][0] != want || vecs[0][1] != float32(n) {
					t.Fatalf("n=%d %s mean=%v: call after the mismatch summed to %v", n, name, mean, vecs[0])
				}
			}
		}
	}
}

// gpt2LayerSizes returns the layer sizes of GPT2-S scaled down 100 times
// in backward order: the sequence of calls one LowDiff+ step makes.
func gpt2LayerSizes() []int {
	layers := model.GPT2Small().Scaled(100).Layers
	out := make([]int, len(layers))
	for i, l := range layers {
		out[len(layers)-1-i] = l.Size
	}
	return out
}

// RingAllReduceMean must be bit-identical to RingAllReduceSum followed by
// Scale(1/n). Each group serves every length in turn, so send-buffer
// growth and rotation cross call boundaries.
func TestRingAllReduceMeanMatchesSumThenScale(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		lengths := append([]int{1, max(n-1, 0), 257}, gpt2LayerSizes()...)
		lengths = append(lengths, 257, 1)
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		// Rank r's input of length m is src[r*1009 : r*1009+m]; wide
		// exponents make the rounding of the sum matter.
		rng := tensor.NewRNG(uint64(n))
		src := tensor.New(slices.Max(lengths) + n*1009)
		rng.FillUniform(src, -1, 1)
		for i := range src {
			src[i] *= float32(math.Ldexp(1, rng.Intn(60)-30))
		}
		for _, m := range lengths {
			mean := make([]tensor.Vector, n)
			sum := make([]tensor.Vector, n)
			for r := 0; r < n; r++ {
				mean[r] = src[r*1009 : r*1009+m].Clone()
				sum[r] = mean[r].Clone()
			}
			for _, err := range ringCall(t, g, true, mean) {
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, err := range ringCall(t, g, false, sum) {
				if err != nil {
					t.Fatal(err)
				}
			}
			for r := 0; r < n; r++ {
				sum[r].Scale(1 / float32(n))
				for i := range sum[r] {
					if math.Float32bits(mean[r][i]) != math.Float32bits(sum[r][i]) {
						t.Fatalf("n=%d m=%d rank %d [%d]: mean %v, sum then scale %v",
							n, m, r, i, mean[r][i], sum[r][i])
					}
					if math.Float32bits(mean[r][i]) != math.Float32bits(mean[0][i]) {
						t.Fatalf("n=%d m=%d: rank %d differs from rank 0 at %d", n, m, r, i)
					}
				}
			}
		}
	}
}

// TestRingAllReduceAllocs: once its send buffers have grown, a ring
// all-reduce allocates nothing. Rank 1 is a persistent goroutine, as a
// training worker is, so the gate sees only the collective.
//
// A goroutine that blocks on a channel takes a wait record (a sudog) from
// its P's cache, and the runtime allocates one when the cache is empty. How
// many the two ranks hold at once depends on how the scheduler interleaves
// them, which a loaded host varies, so the warm-up calls alone do not
// bound it. The test therefore runs at the gate's one P from the start and
// fills that P's cache beyond what two goroutines can hold.
func TestRingAllReduceAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for range 4 {
		fillSudogCache(8)
	}
	const n = 2
	g, _ := NewGroup(n)
	vecs := make([]tensor.Vector, n)
	for r := range vecs {
		vecs[r] = tensor.New(23623) // a GPT2-S/100 attention layer
		tensor.NewRNG(uint64(r)).FillUniform(vecs[r], -1, 1)
	}
	start, done := make(chan struct{}), make(chan error)
	defer close(start)
	go func() {
		for range start {
			done <- g.RingAllReduceMean(1, vecs[1])
		}
	}()
	call := func() {
		start <- struct{}{}
		if err := g.RingAllReduceMean(0, vecs[0]); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// A call sends two messages per rank, so a rank's third send buffer
	// is first used in the second call: make one call here, and the
	// gate's own warm-up call is the second.
	call()
	allocgate.Check(t, 200, 0, 0, call)
}

// fillSudogCache parks this goroutine in one select over k channels, so
// that it holds k sudogs at once, until a helper goroutine wakes it; they
// then go back to the current P's cache. If the helper happens to run
// first, the select does not block and nothing is filled, so callers
// repeat it.
func fillSudogCache(k int) {
	cases := make([]reflect.SelectCase, k)
	wake := make(chan struct{})
	for i := range cases {
		c := wake
		if i > 0 {
			c = make(chan struct{})
		}
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(c)}
	}
	go func() { wake <- struct{}{} }()
	reflect.Select(cases)
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
