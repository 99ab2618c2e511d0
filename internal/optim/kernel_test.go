package optim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/parallel"
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

// The sharded kernels are elementwise, so a dense and a sparse step at any
// worker count leave the parameters and the optimizer state bit-identical
// to the serial (nil pool) step the engines take.
func TestStepWithBitIdenticalAtAnyWorkerCount(t *testing.T) {
	const n = 5*97 + 13 // several shards and a short tail at chunk 97
	for _, rule := range rules {
		for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
			pool, err := parallel.NewWithChunk(workers, 97)
			if err != nil {
				t.Fatal(err)
			}
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
					if err := got.StepWith(pool, pGot, g); err != nil {
						t.Fatal(err)
					}
				} else {
					g := sortedGrad(r, n, n/10)
					if err := ref.StepSparse(pRef, g.Idx, g.Vals); err != nil {
						t.Fatal(err)
					}
					if err := got.StepSparseRun(pool, pGot, []Sparse{g}); err != nil {
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
// run length, worker count and chunk size, for every rule.
func TestStepSparseRunMatchesPerStep(t *testing.T) {
	const n = 5*97 + 13
	for _, rule := range rules {
		for _, length := range []int{1, 2, 8, 16} {
			for _, workers := range []int{0, 1, 2, 7} {
				var pool *parallel.Pool // nil: the serial call on the default grid
				if workers > 0 {
					var err error
					if pool, err = parallel.NewWithChunk(workers, 97); err != nil {
						t.Fatal(err)
					}
				}
				r := tensor.NewRNG(uint64(23 + length))
				ref, got := rule.mk(n), rule.mk(n)
				pRef := randVec(r, n)
				pGot := pRef.Clone()
				run := make([]Sparse, length)
				for i := range run {
					run[i] = sortedGrad(r, n, 1+r.Intn(n/4))
					if err := ref.StepSparse(pRef, run[i].Idx, run[i].Vals); err != nil {
						t.Fatal(err)
					}
				}
				if err := got.StepSparseRun(pool, pGot, run); err != nil {
					t.Fatal(err)
				}
				if !pGot.Identical(pRef) {
					t.Fatalf("%s: run of %d at %d workers: parameters differ from per-step", rule.name, length, workers)
				}
				sameState(t, rule.name, got.Snapshot(), ref.Snapshot())
			}
		}
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
	pool, err := parallel.NewWithChunk(2, 97)
	if err != nil {
		t.Fatal(err)
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
				if err := o.StepSparseRun(pool, params, run); err == nil {
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
// whole capacity, so get never has to clear one. Duplicate indices are
// rejected like out-of-range ones: every sparse step is a tiled run, whose
// contract is strictly increasing indices.
func TestScratchPoolStaysZero(t *testing.T) {
	const n = 256
	r := tensor.NewRNG(9)
	for _, rule := range rules {
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
		if err := o.StepSparseRun(nil, params, []Sparse{sortedGrad(r, n, 40), sortedGrad(r, n, 3)}); err != nil {
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
	const c = parallel.DefaultChunk
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

// TestStepAllocs holds the dense step and the sparse run, serial and at two
// pool workers, at their allocation counts. A serial step allocates
// nothing. A pooled one allocates only its dispatch: ForEach's cursor,
// WaitGroup and two goroutine closures plus the step's own closure (5
// objects); a tiled run also copies its headers (6). Plain SGD walks a run's
// indices without tiling, so its run allocates nothing at any pool. Each
// bound is the measured count plus half an object and the measured bytes
// plus 512, so one more allocation per call fails it.
func TestStepAllocs(t *testing.T) {
	const n = 4 * parallel.DefaultChunk
	r := tensor.NewRNG(2)
	grad := randVec(r, n)
	run := []Sparse{sortedGrad(r, n, 600), sortedGrad(r, n, 600), sortedGrad(r, n, 600)}
	pool2, err := parallel.New(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range rules {
		o, params := rule.mk(n), randVec(r, n)
		dense := func(pool *parallel.Pool) func(*testing.T) {
			return func(t *testing.T) {
				if err := o.StepWith(pool, params, grad); err != nil {
					t.Fatal(err)
				}
			}
		}
		sparse := func(pool *parallel.Pool) func(*testing.T) {
			return func(t *testing.T) {
				if err := o.StepSparseRun(pool, params, run); err != nil {
					t.Fatal(err)
				}
			}
		}
		pooledRun, pooledRunBytes := 6.5, 888.0
		if rule.name == "sgd" {
			pooledRun, pooledRunBytes = 0.5, 512
		}
		for _, tc := range []struct {
			name          string
			op            func(*testing.T)
			allocs, bytes float64
		}{
			{"dense/serial", dense(nil), 0.5, 512},
			{"dense/pool2", dense(pool2), 5.5, 760},
			{"run/serial", sparse(nil), 0.5, 512},
			{"run/pool2", sparse(pool2), pooledRun, pooledRunBytes},
		} {
			t.Run(rule.name+"/"+tc.name, func(t *testing.T) {
				allocgate.Check(t, 40, tc.allocs, tc.bytes, func() { tc.op(t) })
			})
		}
	}
}
