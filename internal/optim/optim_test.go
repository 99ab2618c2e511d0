package optim

import (
	"math"
	"testing"
	"testing/quick"

	"lowdiff/internal/tensor"
)

func randVec(r *tensor.RNG, n int) tensor.Vector {
	v := tensor.New(n)
	r.FillUniform(v, -1, 1)
	return v
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize ||x - target||^2; gradient = 2(x - target).
	const n = 64
	r := tensor.NewRNG(1)
	target := randVec(r, n)
	x := tensor.New(n)
	a := NewAdam(n, AdamConfig{LR: 0.05})
	grad := tensor.New(n)
	for it := 0; it < 2000; it++ {
		for i := range grad {
			grad[i] = 2 * (x[i] - target[i])
		}
		if err := a.Step(x, grad); err != nil {
			t.Fatal(err)
		}
	}
	md, err := x.MaxAbsDiff(target)
	if err != nil {
		t.Fatal(err)
	}
	if md > 1e-3 {
		t.Fatalf("adam did not converge: max diff %v", md)
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	const n = 64
	r := tensor.NewRNG(2)
	target := randVec(r, n)
	x := tensor.New(n)
	s := NewSGD(n, SGDConfig{LR: 0.1, Momentum: 0.9})
	grad := tensor.New(n)
	for it := 0; it < 500; it++ {
		for i := range grad {
			grad[i] = 2 * (x[i] - target[i])
		}
		if err := s.Step(x, grad); err != nil {
			t.Fatal(err)
		}
	}
	md, _ := x.MaxAbsDiff(target)
	if md > 1e-3 {
		t.Fatalf("sgd did not converge: max diff %v", md)
	}
}

func TestAdamStepErrors(t *testing.T) {
	a := NewAdam(4, AdamConfig{})
	if err := a.Step(tensor.New(3), tensor.New(4)); err == nil {
		t.Fatal("want params size error")
	}
	if err := a.Step(tensor.New(4), tensor.New(3)); err == nil {
		t.Fatal("want grad size error")
	}
	if err := a.StepSparse(tensor.New(4), []int32{9}, tensor.New(1)); err == nil {
		t.Fatal("want index range error")
	}
	if err := a.StepSparse(tensor.New(4), []int32{0}, tensor.New(2)); err == nil {
		t.Fatal("want idx/vals mismatch error")
	}
}

func TestSGDStepErrors(t *testing.T) {
	s := NewSGD(4, SGDConfig{})
	if err := s.Step(tensor.New(3), tensor.New(3)); err == nil {
		t.Fatal("want size error")
	}
	if err := s.StepSparse(tensor.New(4), []int32{-1}, tensor.New(1)); err == nil {
		t.Fatal("want index range error")
	}
	if err := s.StepSparse(tensor.New(4), []int32{0, 1}, tensor.New(1)); err == nil {
		t.Fatal("want idx/vals mismatch error")
	}
}

// sparseEqualsDense checks StepSparse == scatter + dense Step, bit for bit.
func sparseEqualsDense(t *testing.T, mk func() Optimizer, n int, seed uint64) {
	t.Helper()
	r := tensor.NewRNG(seed)
	xDense := randVec(r, n)
	xSparse := xDense.Clone()
	oDense := mk()
	oSparse := mk()
	for it := 0; it < 10; it++ {
		g := sortedGrad(r, n, 1+r.Intn(n/2))
		idx, vals := g.Idx, g.Vals
		dense := tensor.New(n)
		if err := dense.ScatterAdd(idx, vals); err != nil {
			t.Fatal(err)
		}
		if err := oDense.Step(xDense, dense); err != nil {
			t.Fatal(err)
		}
		if err := oSparse.StepSparse(xSparse, idx, vals); err != nil {
			t.Fatal(err)
		}
	}
	if !xDense.Equal(xSparse) {
		md, _ := xDense.MaxAbsDiff(xSparse)
		t.Fatalf("sparse and dense steps diverged (max diff %v)", md)
	}
	if oDense.StepCount() != oSparse.StepCount() {
		t.Fatalf("step counts diverged: %d vs %d", oDense.StepCount(), oSparse.StepCount())
	}
}

func TestAdamSparseEqualsDense(t *testing.T) {
	sparseEqualsDense(t, func() Optimizer { return NewAdam(100, AdamConfig{LR: 0.01}) }, 100, 3)
}

func TestSGDSparseEqualsDense(t *testing.T) {
	sparseEqualsDense(t, func() Optimizer { return NewSGD(100, SGDConfig{LR: 0.05}) }, 100, 4)
}

func TestSGDMomentumSparseEqualsDense(t *testing.T) {
	sparseEqualsDense(t, func() Optimizer { return NewSGD(100, SGDConfig{LR: 0.05, Momentum: 0.9}) }, 100, 5)
}

// snapshotRestoreReplay checks that restoring a snapshot and replaying the
// same gradients reproduces the live trajectory bit-exactly — the property
// differential-checkpoint recovery depends on.
func snapshotRestoreReplay(t *testing.T, mk func() Optimizer, n int, seed uint64) {
	t.Helper()
	r := tensor.NewRNG(seed)
	x := randVec(r, n)
	o := mk()
	// Warm up.
	for it := 0; it < 5; it++ {
		if err := o.Step(x, randVec(r, n)); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Snapshot()
	xSnap := x.Clone()
	// Live run with recorded gradients.
	grads := make([]tensor.Vector, 7)
	for i := range grads {
		grads[i] = randVec(r, n)
		if err := o.Step(x, grads[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Replay from the snapshot on a fresh optimizer.
	o2, err := FromState(snap, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range grads {
		if err := o2.Step(xSnap, g); err != nil {
			t.Fatal(err)
		}
	}
	if !x.Equal(xSnap) {
		md, _ := x.MaxAbsDiff(xSnap)
		t.Fatalf("replay diverged from live run (max diff %v)", md)
	}
	if o.StepCount() != o2.StepCount() {
		t.Fatalf("replayed step count %d, want %d", o2.StepCount(), o.StepCount())
	}
}

func TestAdamSnapshotReplay(t *testing.T) {
	snapshotRestoreReplay(t, func() Optimizer { return NewAdam(50, AdamConfig{LR: 0.01}) }, 50, 6)
}

func TestSGDSnapshotReplay(t *testing.T) {
	snapshotRestoreReplay(t, func() Optimizer { return NewSGD(50, SGDConfig{LR: 0.05, Momentum: 0.8}) }, 50, 7)
}

func TestSnapshotIsDeepCopy(t *testing.T) {
	a := NewAdam(4, AdamConfig{})
	x := tensor.Vector{1, 2, 3, 4}
	if err := a.Step(x, tensor.Vector{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	if err := a.Step(x, tensor.Vector{2, 2, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if snap.Step != 1 {
		t.Fatalf("snapshot step mutated: %d", snap.Step)
	}
	m, _ := a.Moments()
	if snap.Slots["m"][0] == m[0] {
		t.Fatal("snapshot aliases live moments")
	}
}

func TestRestoreErrors(t *testing.T) {
	a := NewAdam(4, AdamConfig{})
	if err := a.Restore(State{Name: "sgd"}); err == nil {
		t.Fatal("want wrong-name error")
	}
	if err := a.Restore(State{Name: "adam", Slots: map[string][]float32{"m": make([]float32, 2), "v": make([]float32, 4)}}); err == nil {
		t.Fatal("want shape error")
	}
	s := NewSGD(4, SGDConfig{Momentum: 0.9})
	if err := s.Restore(State{Name: "adam"}); err == nil {
		t.Fatal("want wrong-name error")
	}
	if err := s.Restore(State{Name: "sgd", Slots: map[string][]float32{}}); err == nil {
		t.Fatal("want missing-momentum error")
	}
	if err := s.Restore(State{Name: "sgd", Slots: map[string][]float32{"momentum": make([]float32, 1)}}); err == nil {
		t.Fatal("want momentum length error")
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, mk := range []func() Optimizer{
		func() Optimizer { return NewAdam(8, AdamConfig{}) },
		func() Optimizer { return NewSGD(8, SGDConfig{Momentum: 0.9}) },
	} {
		o := mk()
		x := randVec(tensor.NewRNG(1), 8)
		g := randVec(tensor.NewRNG(2), 8)
		if err := o.Step(x, g); err != nil {
			t.Fatal(err)
		}
		c := o.Clone()
		x1, x2 := x.Clone(), x.Clone()
		if err := o.Step(x1, g); err != nil {
			t.Fatal(err)
		}
		if err := c.Step(x2, g); err != nil {
			t.Fatal(err)
		}
		if !x1.Equal(x2) {
			t.Fatalf("%s: clone diverged from original", o.Name())
		}
		// Stepping the clone again must not affect the original's state.
		before := o.Snapshot()
		if err := c.Step(x2, g); err != nil {
			t.Fatal(err)
		}
		after := o.Snapshot()
		if before.Step != after.Step {
			t.Fatalf("%s: clone step mutated original", o.Name())
		}
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"adam", "sgd"} {
		o, err := New(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if o.Name() != name {
			t.Fatalf("Name = %q, want %q", o.Name(), name)
		}
	}
	if _, err := New("adagrad", 4); err == nil {
		t.Fatal("want unknown-optimizer error")
	}
	if _, err := FromState(State{Name: "nope"}, 4); err == nil {
		t.Fatal("want unknown-state error")
	}
}

func TestStateSlotBytes(t *testing.T) {
	a := NewAdam(100, AdamConfig{})
	if got := a.Snapshot().SlotBytes(); got != 800 {
		t.Fatalf("SlotBytes = %d, want 800 (2Ψ·4)", got)
	}
	s := NewSGD(100, SGDConfig{})
	if got := s.Snapshot().SlotBytes(); got != 0 {
		t.Fatalf("plain SGD SlotBytes = %d, want 0", got)
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// After one step from zero moments, Adam's update is ~ -lr * sign(g).
	a := NewAdam(2, AdamConfig{LR: 0.1})
	x := tensor.Vector{0, 0}
	if err := a.Step(x, tensor.Vector{1, -3}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(x[0])+0.1) > 1e-4 || math.Abs(float64(x[1])-0.1) > 1e-4 {
		t.Fatalf("first-step update = %v, want ~[-0.1, +0.1]", x)
	}
}

// Property: Adam trajectories are deterministic functions of (seed, steps).
func TestDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		run := func() tensor.Vector {
			r := tensor.NewRNG(seed)
			n := 8 + r.Intn(32)
			x := randVec(r, n)
			o := NewAdam(n, AdamConfig{LR: 0.02})
			for it := 0; it < 5; it++ {
				if err := o.Step(x, randVec(r, n)); err != nil {
					return nil
				}
			}
			return x
		}
		a, b := run(), run()
		return a != nil && a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
