package optim

import (
	"runtime"
	"testing"

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

// sparseGrad draws k distinct indices below n, unsorted, with random values.
func sparseGrad(r *tensor.RNG, n, k int) ([]int32, tensor.Vector) {
	idx := make([]int32, 0, k)
	for _, j := range r.Perm(n)[:k] {
		idx = append(idx, int32(j))
	}
	return idx, randVec(r, k)
}

func sameState(t *testing.T, what string, got, want State) {
	t.Helper()
	if got.Step != want.Step || len(got.Slots) != len(want.Slots) {
		t.Fatalf("%s: step %d with %d slots, want %d with %d", what, got.Step, len(got.Slots), want.Step, len(want.Slots))
	}
	for _, k := range want.SlotNames() {
		if !tensor.Vector(got.Slots[k]).Equal(want.Slots[k]) {
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
					idx, vals := sparseGrad(r, n, n/10)
					if err := ref.StepSparse(pRef, idx, vals); err != nil {
						t.Fatal(err)
					}
					if err := got.StepSparseWith(pool, pGot, idx, vals); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !pGot.Equal(pRef) {
				t.Fatalf("%s at %d workers: parameters differ from the serial step", rule.name, workers)
			}
			sameState(t, rule.name, got.Snapshot(), ref.Snapshot())
		}
	}
}

// A sparse step that is rejected — here for an out-of-range index after
// valid ones — leaves the step counter, the moments and the parameters
// bit-unchanged. (Adam used to advance its step counter, and with it every
// later bias correction, before it range-checked.)
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
		for _, bad := range [][]int32{{3, 9, n}, {3, -1, 9}} {
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
		if !params.Equal(pBefore) {
			t.Fatalf("%s: rejected steps changed the parameters", rule.name)
		}
		sameState(t, rule.name, o.Snapshot(), before)
	}
}

// Pooled scratch is all-zero by invariant: after successful steps, and
// after steps that failed, every buffer the pool holds is zero over its
// whole capacity, so get never has to clear one.
func TestScratchPoolStaysZero(t *testing.T) {
	const n = 256
	r := tensor.NewRNG(9)
	for _, rule := range rules {
		o := rule.mk(n)
		params := randVec(r, n)
		idx, vals := sparseGrad(r, n, 40)
		if err := o.StepSparse(params, idx, vals); err != nil {
			t.Fatal(err)
		}
		if err := o.StepSparse(params, []int32{0, 5, 5}, tensor.Vector{1, 2, 3}); err != nil {
			t.Fatal(err) // duplicates accumulate; they are not an error
		}
		if err := o.StepSparse(params, []int32{7, n + 3}, tensor.Vector{1, 2}); err == nil {
			t.Fatal("out-of-range index accepted")
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
		if !pMoved.Equal(pCopied) {
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
