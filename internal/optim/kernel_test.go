package optim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/tensor"
)

// rules are the three update rules the kernels implement.
var rules = []struct {
	name string
	mk   func(n int) Optimizer
}{
	{"adam", func(n int) Optimizer { return NewAdam(n, AdamConfig{LR: 0.01}) }},
	{"sgd", func(n int) Optimizer { return NewSGD(n, SGDConfig{LR: 0.05}) }},
	{"sgd-momentum", func(n int) Optimizer { return NewSGD(n, SGDConfig{LR: 0.05, Momentum: 0.9}) }},
}

func sameState(t *testing.T, what string, got, want State) {
	t.Helper()
	if got.Step != want.Step || len(got.Slots) != len(want.Slots) {
		t.Fatalf("%s: step %d with %d slots, want %d with %d", what, got.Step, len(got.Slots), want.Step, len(want.Slots))
	}
	for _, k := range want.SlotNames() {
		if !tensor.Vector(got.Slots[k]).Identical(want.Slots[k]) {
			t.Fatalf("%s: slot %q differs", what, k)
		}
	}
}

// A dense step and a sparse run at any worker count, interleaved, leave the
// parameters and the optimizer state bit-identical to the serial steps the
// engines take: the dense step and the tiled run share one step counter
// and one set of moments, on a grid of several chunks and a short tail.
func TestStepWithBitIdenticalAtAnyWorkerCount(t *testing.T) {
	const n = 2*chunk + 13
	for _, rule := range rules {
		for _, workers := range []int{1, 2, 3, 8} {
			r := tensor.NewRNG(11)
			ref, got := rule.mk(n), rule.mk(n)
			pRef := randVec(r, n)
			pGot := pRef.Clone()
			for step := 0; step < 6; step++ {
				if step%2 == 0 {
					g := randVec(r, n)
					if err := ref.Step(pRef, g); err != nil {
						t.Fatal(err)
					}
					if err := got.Step(pGot, g); err != nil {
						t.Fatal(err)
					}
				} else {
					g := sortedGrad(r, n, n/10)
					if err := ref.StepSparse(pRef, g.Idx, g.Vals); err != nil {
						t.Fatal(err)
					}
					if err := got.StepSparseRun(workers, pGot, []Sparse{g}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !pGot.Identical(pRef) {
				t.Fatalf("%s at %d workers: parameters differ from the serial step", rule.name, workers)
			}
			sameState(t, rule.name, got.Snapshot(), ref.Snapshot())
		}
	}
}

// A sparse step that is rejected — for an out-of-range, unsorted or
// duplicate index after valid ones — leaves the step counter, the moments
// and the parameters bit-unchanged. (Adam used to advance its step counter,
// and with it every later bias correction, before it range-checked.)
func TestRejectedSparseStepMutatesNothing(t *testing.T) {
	const n = 64
	for _, rule := range rules {
		r := tensor.NewRNG(5)
		o := rule.mk(n)
		params := randVec(r, n)
		if err := o.Step(params, randVec(r, n)); err != nil {
			t.Fatal(err)
		}
		before, pBefore := o.Snapshot(), params.Clone()
		for _, bad := range [][]int32{{3, 9, n}, {3, -1, 9}, {3, 9, 5}, {3, 9, 9}, {0, 0, 1}} {
			if err := o.StepSparse(params, bad, tensor.Vector{1, 2, 3}); err == nil {
				t.Fatalf("%s: index set %v accepted", rule.name, bad)
			}
		}
		if err := o.StepSparse(params, []int32{1, 2}, tensor.Vector{1}); err == nil {
			t.Fatalf("%s: idx/vals length mismatch accepted", rule.name)
		}
		if o.StepCount() != before.Step {
			t.Fatalf("%s: rejected steps moved the step counter %d -> %d", rule.name, before.Step, o.StepCount())
		}
		if !params.Identical(pBefore) {
			t.Fatalf("%s: rejected steps changed the parameters", rule.name)
		}
		sameState(t, rule.name, o.Snapshot(), before)
	}
}

// sortedGrad draws k distinct indices below n in increasing order, the
// shape every sparse step takes, with random values.
func sortedGrad(r *tensor.RNG, n, k int) Sparse {
	mask := make([]bool, n)
	for _, j := range r.Perm(n)[:k] {
		mask[j] = true
	}
	var g Sparse
	for j, on := range mask {
		if on {
			g.Idx = append(g.Idx, int32(j))
		}
	}
	g.Vals = randVec(r, k)
	return g
}

// A time-tiled run is one StepSparse per gradient, bit for bit, at every
// run length and worker count, for every rule: on fewer parameters than a
// chunk, where every count walks the one chunk inline, and on a grid of
// several chunks and a short tail, which more workers than chunks still
// cover exactly once.
func TestStepSparseRunMatchesPerStep(t *testing.T) {
	for _, rule := range rules {
		for _, n := range []int{chunk - 5, 2*chunk + 13} {
			for _, length := range []int{1, 2, 8, 16} {
				r := tensor.NewRNG(uint64(23 + length))
				ref := rule.mk(n)
				p0 := randVec(r, n)
				pRef := p0.Clone()
				run := make([]Sparse, length)
				for i := range run {
					run[i] = sortedGrad(r, n, 1+r.Intn(n/4))
					if err := ref.StepSparse(pRef, run[i].Idx, run[i].Vals); err != nil {
						t.Fatal(err)
					}
				}
				for _, workers := range []int{1, 2, 3, 8} {
					got, pGot := rule.mk(n), p0.Clone()
					if err := got.StepSparseRun(workers, pGot, run); err != nil {
						t.Fatal(err)
					}
					what := fmt.Sprintf("%s: n=%d, run of %d at %d workers", rule.name, n, length, workers)
					if !pGot.Identical(pRef) {
						t.Fatalf("%s: parameters differ from per-step", what)
					}
					sameState(t, what, got.Snapshot(), ref.Snapshot())
				}
			}
		}
	}
}

// tileLog is a tileRule that records the tiles tiled hands it, so the
// tests below see the sharding loop itself, apart from any update rule.
type tileLog struct {
	seen  []atomic.Int32 // visits per parameter index
	mu    sync.Mutex
	tiles [][2]int // every [lo, hi) stepped, in the order stepped
}

func newTileLog(n int) *tileLog { return &tileLog{seen: make([]atomic.Int32, n)} }

func (l *tileLog) stepTile(_ int, _ []float32, lo, hi int, _ []float32) {
	for i := lo; i < hi; i++ {
		l.seen[i].Add(1)
	}
	l.mu.Lock()
	l.tiles = append(l.tiles, [2]int{lo, hi})
	l.mu.Unlock()
}

// tiledSizes are parameter counts around the chunk edges: none, one, one
// short of a chunk, one chunk, one past it, and several with a short tail.
var tiledSizes = []int{0, 1, chunk - 1, chunk, chunk + 1, 3*chunk + 17}

// At every worker count, including more workers than chunks, tiled steps
// every parameter index exactly once per step of the run.
func TestTiledCoversEveryIndexOnce(t *testing.T) {
	run := []Sparse{{}, {}}
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range tiledSizes {
			l := newTileLog(n)
			tiled(workers, l, tensor.New(n), run)
			for i := range l.seen {
				if got := l.seen[i].Load(); got != int32(len(run)) {
					t.Fatalf("workers=%d n=%d: index %d stepped %d times, want %d", workers, n, i, got, len(run))
				}
			}
		}
	}
}

// The tiles are the fixed grid [k*chunk, min((k+1)*chunk, n)): the same set
// at every worker count, so no result can depend on how many workers ran.
func TestTiledGridDependsOnlyOnN(t *testing.T) {
	for _, n := range tiledSizes {
		var want [][2]int
		for lo := 0; lo < n; lo += chunk {
			want = append(want, [2]int{lo, min(lo+chunk, n)})
		}
		for _, workers := range []int{1, 2, 3, 8} {
			l := newTileLog(n)
			tiled(workers, l, tensor.New(n), []Sparse{{}})
			got := l.tiles
			slices.SortFunc(got, func(a, b [2]int) int { return a[0] - b[0] })
			if !slices.Equal(got, want) {
				t.Fatalf("workers=%d n=%d: tiles %v, want %v", workers, n, got, want)
			}
		}
	}
	l := newTileLog(2*chunk + 1)
	tiled(2, l, tensor.New(2*chunk+1), []Sparse{{}})
	slices.SortFunc(l.tiles, func(a, b [2]int) int { return a[0] - b[0] })
	if len(l.tiles) != 3 || l.tiles[2] != [2]int{2 * chunk, 2*chunk + 1} {
		t.Fatalf("n=2*chunk+1: tiles %v, want three with tail [%d,%d)", l.tiles, 2*chunk, 2*chunk+1)
	}
}

// A worker count of one or less, or fewer chunks than two, walks the grid
// serially: every tile in ascending order, each step of the run on a tile
// before the next tile. (Under -race a concurrent walk would also show as
// a race on tileOrder's unguarded slice.)
func TestTiledOneWorkerIsSerial(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{-3, 3*chunk + 17}, {0, 3*chunk + 17}, {1, 3*chunk + 17}, {8, chunk}, {8, chunk - 1},
	} {
		o := &tileOrder{}
		tiled(tc.workers, o, tensor.New(tc.n), []Sparse{{}, {}})
		var want [][3]int
		for lo := 0; lo < tc.n; lo += chunk {
			want = append(want, [3]int{0, lo, min(lo+chunk, tc.n)}, [3]int{1, lo, min(lo+chunk, tc.n)})
		}
		if !slices.Equal(o.steps, want) {
			t.Fatalf("workers=%d n=%d: stepped %v, want %v", tc.workers, tc.n, o.steps, want)
		}
	}
}

// tileOrder records (step, lo, hi) of each stepTile call without a lock.
type tileOrder struct{ steps [][3]int }

func (o *tileOrder) stepTile(s int, _ []float32, lo, hi int, _ []float32) {
	o.steps = append(o.steps, [3]int{s, lo, hi})
}

type nopRule struct{}

func (nopRule) stepTile(int, []float32, int, int, []float32) {}

// TestTiledAllocs holds the sharding loop, apart from any rule, at its
// allocation counts over 17 chunks: a serial walk (zero workers or one)
// allocates nothing, and a four-worker dispatch allocates its cursor, its
// WaitGroup, one goroutine closure per worker and the copy of the run's
// headers (7 objects, 456 B), never anything per chunk. Each bound is the measured count plus
// half an object and the measured bytes plus 512, so one more allocation
// per call fails it.
func TestTiledAllocs(t *testing.T) {
	const n = 16*chunk + 5
	params := tensor.New(n)
	run := []Sparse{{}}
	for _, tc := range []struct {
		name          string
		workers       int
		allocs, bytes float64
	}{
		{"zero_workers", 0, 0.5, 512},
		{"one_worker", 1, 0.5, 512},
		{"dispatch", 4, 7.5, 968},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocgate.Check(t, 100, tc.allocs, tc.bytes, func() { tiled(tc.workers, nopRule{}, params, run) })
		})
	}
}

// A run with one bad gradient anywhere in it — out of range, out of order,
// short of values — is rejected whole: no step of it is taken.
func TestRejectedRunMutatesNothing(t *testing.T) {
	const n = 300
	bad := map[string]func(g *Sparse){
		"out of range": func(g *Sparse) { g.Idx[len(g.Idx)-1] = n },
		"out of order": func(g *Sparse) { g.Idx[0], g.Idx[1] = g.Idx[1], g.Idx[0] },
		"duplicate":    func(g *Sparse) { g.Idx[1] = g.Idx[0] },
		"short values": func(g *Sparse) { g.Vals = g.Vals[1:] },
	}
	for _, rule := range rules {
		for name, damage := range bad {
			for _, k := range []int{0, 3, 7} {
				r := tensor.NewRNG(41)
				o := rule.mk(n)
				params := randVec(r, n)
				if err := o.Step(params, randVec(r, n)); err != nil {
					t.Fatal(err)
				}
				run := make([]Sparse, 8)
				for i := range run {
					run[i] = sortedGrad(r, n, 20)
				}
				damage(&run[k])
				before, pBefore := o.Snapshot(), params.Clone()
				if err := o.StepSparseRun(2, params, run); err == nil {
					t.Fatalf("%s: run with %s at step %d accepted", rule.name, name, k)
				}
				if !params.Identical(pBefore) {
					t.Fatalf("%s: rejected run (%s at step %d) changed the parameters", rule.name, name, k)
				}
				sameState(t, rule.name+" "+name, o.Snapshot(), before)
			}
		}
	}
}

// Pooled scratch is all-zero by invariant: after successful steps and runs,
// and after steps that failed, every buffer the pool holds is zero over its
// whole capacity, so get never has to clear one; so is every worker's
// scratch after a run on two workers. Duplicate indices are rejected like
// out-of-range ones: every sparse step is a tiled run, whose contract is
// strictly increasing indices.
func TestScratchPoolStaysZero(t *testing.T) {
	const n = 256
	r := tensor.NewRNG(9)
	for _, rule := range rules {
		wide := rule.mk(3 * chunk)
		if err := wide.StepSparseRun(2, randVec(r, 3*chunk), []Sparse{sortedGrad(r, 3*chunk, 900), sortedGrad(r, 3*chunk, 9)}); err != nil {
			t.Fatal(err)
		}
		o := rule.mk(n)
		params := randVec(r, n)
		g := sortedGrad(r, n, 40)
		if err := o.StepSparse(params, g.Idx, g.Vals); err != nil {
			t.Fatal(err)
		}
		if err := o.StepSparse(params, []int32{0, 5, 5}, tensor.Vector{1, 2, 3}); err == nil {
			t.Fatal("duplicate index accepted")
		}
		if err := o.StepSparse(params, []int32{7, n + 3}, tensor.Vector{1, 2}); err == nil {
			t.Fatal("out-of-range index accepted")
		}
		if err := o.StepSparseRun(1, params, []Sparse{sortedGrad(r, n, 40), sortedGrad(r, n, 3)}); err != nil {
			t.Fatal(err) // the tiled scratch is chunk-sized and comes from the same pool
		}
	}
	densePool.mu.Lock()
	defer densePool.mu.Unlock()
	if densePool.n == 0 {
		t.Fatal("no scratch buffer was returned to the pool")
	}
	for _, b := range densePool.bufs[:densePool.n] {
		for i, x := range b[:cap(b)] {
			if x != 0 {
				t.Fatalf("pooled scratch holds %v at %d", x, i)
			}
		}
	}
}

// Adopt steps the caller's buffers in place and Detach hands the same
// buffers back: no copy on the way in or out, and the same result as the
// copying FromState/Snapshot pair.
func TestAdoptDetachMoveBuffers(t *testing.T) {
	const n = 48
	for _, rule := range rules {
		r := tensor.NewRNG(3)
		src := rule.mk(n)
		params := randVec(r, n)
		if err := src.Step(params, randVec(r, n)); err != nil {
			t.Fatal(err)
		}
		g := randVec(r, n)

		copied, err := FromState(src.Snapshot(), n)
		if err != nil {
			t.Fatal(err)
		}
		pCopied := params.Clone()
		if err := copied.Step(pCopied, g); err != nil {
			t.Fatal(err)
		}

		st := src.Snapshot()
		moved, err := Adopt(st, n)
		if err != nil {
			t.Fatal(err)
		}
		pMoved := params.Clone()
		if err := moved.Step(pMoved, g); err != nil {
			t.Fatal(err)
		}
		out := moved.Detach()
		if !pMoved.Identical(pCopied) {
			t.Fatalf("%s: adopted optimizer stepped differently", rule.name)
		}
		sameState(t, rule.name, out, copied.Snapshot())
		for k, v := range st.Slots {
			if len(v) > 0 && &v[0] != &out.Slots[k][0] {
				t.Fatalf("%s: slot %q was copied on its way through Adopt/Detach", rule.name, k)
			}
		}
	}
	if _, err := Adopt(State{Name: "adam", Slots: map[string][]float32{"m": make([]float32, 2), "v": make([]float32, 3)}}, 3); err == nil {
		t.Fatal("Adopt accepted a slot of the wrong length")
	}
	if _, err := Adopt(State{Name: "rmsprop"}, 3); err == nil {
		t.Fatal("Adopt accepted an unknown rule")
	}
}

// Every sparse step is a tiled run on the serial grid. At lengths around the
// chunk edges, with indices on the edges and at both ends, and with signed
// zeros, NaN, infinities and denormals among the values and the
// parameters, it is bit-identical to a dense Step on the scattered
// gradient, for every rule.
func TestSparseStepMatchesDenseAtChunkEdges(t *testing.T) {
	const c = chunk
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	denorm := math.Float32frombits(1)
	specials := []float32{0, negZero, nan, inf, -inf, denorm, -denorm, 3 * denorm, 1.5, -2.25}
	for _, n := range []int{1, c - 1, c, c + 1, 3*c + 7} {
		r := tensor.NewRNG(uint64(n))
		on := map[int]bool{0: true, n - 1: true}
		for edge := c; edge <= n; edge += c {
			for _, j := range []int{edge - 1, edge, edge + 1} {
				if j < n {
					on[j] = true
				}
			}
		}
		for i := 0; i < n/50; i++ {
			on[r.Intn(n)] = true
		}
		var idx []int32
		for j := 0; j < n; j++ {
			if on[j] {
				idx = append(idx, int32(j))
			}
		}
		for _, rule := range rules {
			dense, sparse := rule.mk(n), rule.mk(n)
			pDense := randVec(r, n)
			for i := 0; i < n; i += 3 {
				pDense[i] = specials[i%len(specials)] // signed zeros among the parameters too
			}
			for i := 0; i < len(idx); i += 4 {
				pDense[idx[i]] = negZero // where a ±0 value meets it below
			}
			pSparse := pDense.Clone()
			for step := 0; step < 3; step++ {
				vals := randVec(r, len(idx))
				for i := range vals {
					switch {
					case i%4 == 0:
						vals[i] = specials[(i/4+step)%len(specials)]
					case (i+step)%2 == 0:
						vals[i] = specials[(i+step)%len(specials)]
					}
				}
				g := tensor.New(n)
				if err := g.ScatterAdd(idx, vals); err != nil {
					t.Fatal(err)
				}
				if err := dense.Step(pDense, g); err != nil {
					t.Fatal(err)
				}
				if err := sparse.StepSparse(pSparse, idx, vals); err != nil {
					t.Fatal(err)
				}
				// Every step, before a later NaN can hide a difference.
				if !pSparse.Identical(pDense) {
					t.Fatalf("%s at n=%d, step %d: sparse parameters differ from the dense step's", rule.name, n, step)
				}
				sameState(t, fmt.Sprintf("%s at n=%d, step %d", rule.name, n, step), sparse.Snapshot(), dense.Snapshot())
			}
		}
	}
}

// A training step at the shape the benchmark trains — replayN parameters
// and a synchronized Top-K union of 23,000 sorted indices — allocates
// nothing: the run of one lives on the stack, the coefficients in the
// optimizer, and the chunk scratch in the pool. The bounds sit under one
// allocation per call, so any allocation in the step fails the gate; the
// slack absorbs the few objects the runtime itself allocates, now and
// then, when the gate's ReadMemStats starts a thread.
func TestStepSparseAllocs(t *testing.T) {
	r := tensor.NewRNG(1)
	g := sortedGrad(r, replayN, 23_000)
	for _, rule := range rules {
		o, params := rule.mk(replayN), randVec(r, replayN)
		allocgate.Check(t, 40, 0.5, 512, func() {
			if err := o.StepSparse(params, g.Idx, g.Vals); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStepAllocs holds the dense step and the sparse run, the run on one
// worker and on two, at their allocation counts. A dense step and a run on
// one worker allocate nothing. A run on two allocates only its dispatch:
// the cursor, the WaitGroup, two goroutine closures and the copy of the
// run's headers (5 objects). Plain SGD walks a run's indices without
// tiling, so its run allocates nothing at any worker count. Each bound is
// the measured count plus half an object and the measured bytes plus 512,
// so one more allocation per call fails it.
func TestStepAllocs(t *testing.T) {
	const n = 4 * chunk
	r := tensor.NewRNG(2)
	grad := randVec(r, n)
	run := []Sparse{sortedGrad(r, n, 600), sortedGrad(r, n, 600), sortedGrad(r, n, 600)}
	for _, rule := range rules {
		o, params := rule.mk(n), randVec(r, n)
		sparse := func(workers int) func(*testing.T) {
			return func(t *testing.T) {
				if err := o.StepSparseRun(workers, params, run); err != nil {
					t.Fatal(err)
				}
			}
		}
		pooledRun, pooledRunBytes := 5.5, 872.0
		if rule.name == "sgd" {
			pooledRun, pooledRunBytes = 0.5, 512
		}
		for _, tc := range []struct {
			name          string
			op            func(*testing.T)
			allocs, bytes float64
		}{
			{"dense/serial", func(t *testing.T) {
				if err := o.Step(params, grad); err != nil {
					t.Fatal(err)
				}
			}, 0.5, 512},
			{"run/serial", sparse(1), 0.5, 512},
			{"run/pool2", sparse(2), pooledRun, pooledRunBytes},
		} {
			t.Run(rule.name+"/"+tc.name, func(t *testing.T) {
				allocgate.Check(t, 40, tc.allocs, tc.bytes, func() { tc.op(t) })
			})
		}
	}
}
