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

// rankDeadline is how long rankErrs waits for every rank to return: a
// collective that loses a rank fails its test here, by name, instead of
// hanging the package until go test's -timeout.
const rankDeadline = 20 * time.Second

// rankErrs executes fn on every rank in its own goroutine and returns each
// rank's error, failing t if the ranks do not all return within
// rankDeadline.
func rankErrs(t *testing.T, n int, fn func(rank int) error) []error {
	t.Helper()
	errs := make([]error, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				errs[rank] = fn(rank)
			}(r)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(rankDeadline):
		t.Fatalf("%d ranks did not all return within %v: a collective deadlocked", n, rankDeadline)
	}
	return errs
}

// runRanks is rankErrs, failing t on the first rank's error.
func runRanks(t *testing.T, n int, fn func(rank int) error) {
	t.Helper()
	for r, err := range rankErrs(t, n, fn) {
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
	sum := tensor.New(len(first))
	for r := 0; r < g.n; r++ { // rank order
		for i, x := range all[r].(tensor.Vector) {
			sum[i] += x
		}
	}
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
	errs := rankErrs(t, n, func(rank int) error { return g.AllReduceSum(rank, vecs[rank]) })
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("want length-mismatch error on at least one rank")
	}
}

// ringCall runs one ring all-reduce on every rank of g and returns each
// rank's error (rankErrs).
func ringCall(t *testing.T, g *Group, mean bool, vecs []tensor.Vector) []error {
	t.Helper()
	return rankErrs(t, len(vecs), func(rank int) error {
		if mean {
			return g.RingAllReduceMean(rank, vecs[rank])
		}
		return g.RingAllReduceSum(rank, vecs[rank])
	})
}

// A length mismatch anywhere must reach every rank as the same error,
// change no vector and block no rank. The group's rendezvous stays in
// step: the next barrier, sparse all-gather and all-reduce on the same
// group work, and the all-reduce still matches the ring bit for bit.
func TestRingMismatchedLengthsError(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
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
				tag := fmt.Sprintf("n=%d %s mean=%v", n, name, mean)
				g, _ := NewGroup(n)
				vecs := make([]tensor.Vector, n)
				for r := range vecs {
					vecs[r] = tensor.New(lens[r])
					tensor.NewRNG(uint64(r)).FillUniform(vecs[r], -1, 1)
				}
				before := cloneAll(vecs)
				errs := ringCall(t, g, mean, vecs)
				for r, err := range errs {
					if err == nil || errs[0] == nil || err.Error() != errs[0].Error() {
						t.Fatalf("%s: rank %d returned %v, rank 0 %v", tag, r, err, errs[0])
					}
					if !vecs[r].Equal(before[r]) {
						t.Fatalf("%s: the failed call changed rank %d's vector", tag, r)
					}
				}
				runRanks(t, n, g.Barrier)
				runRanks(t, n, func(rank int) error {
					c := &compress.Compressed{Codec: "topk", N: 8, Idx: []int32{int32(rank % 8)}, Vals: []float32{1}}
					_, err := g.AllGatherSparse(rank, c)
					return err
				})
				for r := range vecs {
					vecs[r] = tensor.Vector{float32(r), 1, -2, 0.5}
				}
				checkAgainstRing(t, fmt.Sprintf("n=%d %s: call after the mismatch", n, name), g, mean, vecs)
			}
		}
	}
}

// ringReference is the message-passing ring all-reduce that this package
// ran before its ranks reduced through shared memory, kept as the
// bit-exactness oracle. It runs the ring's 2(n-1) steps serially: in each
// step every rank sends one chunk to its successor, all messages are
// copied out before any is received, and the receivers apply them.
func ringReference(vecs []tensor.Vector, mean bool) {
	n := len(vecs)
	if n == 1 {
		return
	}
	m := len(vecs[0])
	inv := 1 / float32(n)
	msgs := make([]tensor.Vector, n)
	for s := 0; s < 2*(n-1); s++ {
		// Reduce-scatter (s < n-1): after step s, rank r holds the running
		// sum of chunk (r-s-1) mod n over s+2 contributors, so after n-1
		// steps rank r owns the fully reduced chunk (r+1) mod n.
		// All-gather: the reduced chunks circulate around the ring.
		indices := func(rank int) (sendIdx, recvIdx int) {
			if s >= n-1 {
				a := s - (n - 1)
				return (rank + 1 - a + 2*n) % n, (rank - a + 2*n) % n
			}
			return (rank - s + n) % n, (rank - s - 1 + 2*n) % n
		}
		for rank, v := range vecs {
			sendIdx, _ := indices(rank)
			lo, hi := chunkBounds(m, n, sendIdx)
			msgs[rank] = v[lo:hi].Clone()
		}
		for rank, v := range vecs {
			_, recvIdx := indices(rank)
			lo, hi := chunkBounds(m, n, recvIdx)
			c := v[lo:hi]
			d := msgs[(rank+n-1)%n][:len(c)]
			switch {
			case s >= n-1:
				copy(c, d)
			case mean && s == n-2:
				for i := range c {
					c[i] = float32(c[i]+d[i]) * inv // the sum rounds before the scale
				}
			default:
				for i := range c {
					c[i] += d[i]
				}
			}
		}
	}
}

// cloneAll returns a deep copy of every rank's vector.
func cloneAll(vecs []tensor.Vector) []tensor.Vector {
	out := make([]tensor.Vector, len(vecs))
	for r, v := range vecs {
		out[r] = v.Clone()
	}
	return out
}

// checkAgainstRing runs one all-reduce on g over vecs and fails t unless
// every rank's result equals ringReference's bit for bit.
func checkAgainstRing(t *testing.T, tag string, g *Group, mean bool, vecs []tensor.Vector) {
	t.Helper()
	want := cloneAll(vecs)
	ringReference(want, mean)
	for r, err := range ringCall(t, g, mean, vecs) {
		if err != nil {
			t.Fatalf("%s mean=%v: rank %d: %v", tag, mean, r, err)
		}
	}
	for r := range vecs {
		for i := range vecs[r] {
			if got, w := math.Float32bits(vecs[r][i]), math.Float32bits(want[r][i]); got != w {
				t.Fatalf("%s mean=%v: rank %d [%d] = %#08x, the ring gives %#08x", tag, mean, r, i, got, w)
			}
		}
	}
}

// The all-reduce returns the ring's result bit for bit at every group size
// up to 8, for lengths shorter than the group, odd and chunk-uneven
// lengths and the LowDiff+ layer sizes, with exponents wide enough that
// the order of the adds changes the rounding. Each group serves every
// length in turn.
func TestRingAllReduceBitIdenticalToRing(t *testing.T) {
	sizes := gpt2LayerSizes()
	for n := 1; n <= 8; n++ {
		g, err := NewGroup(n)
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(uint64(100 + n))
		lengths := append([]int{0, 1, max(n-1, 1), n, n + 1, 257, 1001}, sizes[:4]...)
		for _, m := range lengths {
			for _, mean := range []bool{false, true} {
				vecs := make([]tensor.Vector, n)
				for r := range vecs {
					vecs[r] = tensor.New(m)
					rng.FillUniform(vecs[r], -1, 1)
					for i := range vecs[r] {
						vecs[r][i] *= float32(math.Ldexp(1, rng.Intn(60)-30))
					}
				}
				checkAgainstRing(t, fmt.Sprintf("n=%d m=%d", n, m), g, mean, vecs)
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
// Scale(1/n). Each group serves every length in turn.
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

// Each rank runs its calls back to back on its own goroutine, as a
// LowDiff+ worker does, and reads its vector as soon as a call returns:
// no rank may return while another still writes to its vector, and no
// rank's next call may lend a vector while another still reads the last.
func TestRingAllReduceBackToBack(t *testing.T) {
	lengths := []int{257, 1, 0, 4096, 3, 1001}
	for _, n := range []int{2, 3, 5, 8} {
		g, _ := NewGroup(n)
		ins := make([][]tensor.Vector, len(lengths)) // ins[call][rank]
		wants := make([][]tensor.Vector, len(lengths))
		for c, m := range lengths {
			ins[c] = make([]tensor.Vector, n)
			for r := range ins[c] {
				ins[c][r] = tensor.New(m)
				tensor.NewRNG(uint64(100*c+r)).FillUniform(ins[c][r], -1, 1)
			}
			wants[c] = cloneAll(ins[c])
			ringReference(wants[c], c%2 == 0)
		}
		// A rank that finds a wrong result records it and keeps calling,
		// so that no other rank blocks.
		runRanks(t, n, func(rank int) error {
			var first error
			for c := range lengths {
				v := ins[c][rank]
				var err error
				if c%2 == 0 {
					err = g.RingAllReduceMean(rank, v)
				} else {
					err = g.RingAllReduceSum(rank, v)
				}
				for i := range v {
					if err == nil && math.Float32bits(v[i]) != math.Float32bits(wants[c][rank][i]) {
						err = fmt.Errorf("n=%d call %d [%d] = %v, the ring gives %v", n, c, i, v[i], wants[c][rank][i])
					}
				}
				if first == nil {
					first = err
				}
			}
			return first
		})
	}
}

// TestRingAllReduceAllocs: an all-reduce allocates nothing. Rank 1 is a
// persistent goroutine, as a training worker is, so the gate sees only the
// collective.
//
// A goroutine that blocks on a channel or a condition variable takes a
// wait record (a sudog) from its P's cache, and the runtime allocates one
// when the cache is empty. How many the two ranks hold at once depends on
// how the scheduler interleaves them, which a loaded host varies, so the
// warm-up calls alone do not bound it. The test therefore runs at the
// gate's one P from the start and fills that P's cache beyond what two
// goroutines can hold.
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
		ringErrs := rankErrs(t, n, func(rank int) error { return g1.RingAllReduceSum(rank, ring[rank]) })
		centralErrs := rankErrs(t, n, func(rank int) error { return g2.AllReduceSum(rank, central[rank]) })
		for i := 0; i < n; i++ {
			if ringErrs[i] != nil || centralErrs[i] != nil {
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
