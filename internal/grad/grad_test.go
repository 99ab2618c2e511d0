package grad

import (
	"math"
	"testing"
	"testing/quick"

	"lowdiff/internal/model"
	"lowdiff/internal/optim"
	"lowdiff/internal/tensor"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(model.Spec{}, 1, 0); err == nil {
		t.Fatal("want invalid-spec error")
	}
	if _, err := New(model.Tiny(2, 4), 1, -0.5); err == nil {
		t.Fatal("want negative-noise error")
	}
}

// TestNewRejectsNonFiniteNoise: a NaN half-width would silently turn the
// noise off, and an infinite one would make gradients infinite, or NaN
// with payloads that differ between the AVX2 body and the Go loop.
func TestNewRejectsNonFiniteNoise(t *testing.T) {
	for _, noise := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(model.Tiny(2, 4), 1, noise); err == nil {
			t.Errorf("New accepted noise half-width %v", noise)
		}
	}
	if _, err := New(model.Tiny(2, 4), 1, math.MaxFloat64); err != nil {
		t.Errorf("New rejected the largest finite half-width: %v", err)
	}
}

func TestLossAndGradientConsistent(t *testing.T) {
	spec := model.Tiny(3, 8)
	o, err := New(spec, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := model.NewParams(spec)
	p.InitUniform(1)
	g := tensor.New(spec.NumParams())
	if err := o.Local(p.Flat, 0, 0, g); err != nil {
		t.Fatal(err)
	}
	// Finite-difference check on a few coordinates.
	base, _ := o.Loss(p.Flat)
	const h = 1e-3
	for _, i := range []int{0, 5, 23} {
		orig := p.Flat[i]
		p.Flat[i] = orig + h
		up, _ := o.Loss(p.Flat)
		p.Flat[i] = orig
		fd := (up - base) / h
		if d := fd - float64(g[i]); d > 0.01 || d < -0.01 {
			t.Fatalf("coordinate %d: finite diff %v vs analytic %v", i, fd, g[i])
		}
	}
}

func TestTrainingConverges(t *testing.T) {
	spec := model.Tiny(4, 32)
	o, err := New(spec, 7, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	p := model.NewParams(spec)
	p.InitUniform(2)
	opt := optim.NewAdam(spec.NumParams(), optim.AdamConfig{LR: 0.05})
	g := tensor.New(spec.NumParams())
	l0, _ := o.Loss(p.Flat)
	for it := 0; it < 500; it++ {
		if err := o.Local(p.Flat, 0, it, g); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(p.Flat, g); err != nil {
			t.Fatal(err)
		}
	}
	l1, _ := o.Loss(p.Flat)
	if l1 > l0/100 {
		t.Fatalf("loss did not drop: %v -> %v", l0, l1)
	}
}

func TestLayerGradMatchesFull(t *testing.T) {
	spec := model.Tiny(5, 16)
	o, _ := New(spec, 3, 0.1)
	p := model.NewParams(spec)
	p.InitUniform(4)
	full := tensor.New(spec.NumParams())
	if err := o.Local(p.Flat, 2, 9, full); err != nil {
		t.Fatal(err)
	}
	offsets := spec.LayerOffsets()
	for _, l := range o.BackwardOrder() {
		out := tensor.New(spec.Layers[l].Size)
		if err := o.LayerGrad(p.Flat, 2, 9, l, out); err != nil {
			t.Fatal(err)
		}
		view := tensor.Vector(full[offsets[l] : offsets[l]+spec.Layers[l].Size])
		if !out.Equal(view) {
			t.Fatalf("layer %d gradient differs from full-gradient slice", l)
		}
	}
}

func TestBackwardOrderIsReverse(t *testing.T) {
	o, _ := New(model.Tiny(4, 2), 1, 0)
	want := []int{3, 2, 1, 0}
	got := o.BackwardOrder()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backward order = %v", got)
		}
	}
}

func TestWorkerNoiseDiffersButDeterministic(t *testing.T) {
	spec := model.Tiny(2, 64)
	o, _ := New(spec, 5, 0.2)
	p := model.NewParams(spec)
	p.InitUniform(1)
	g0a := tensor.New(spec.NumParams())
	g0b := tensor.New(spec.NumParams())
	g1 := tensor.New(spec.NumParams())
	if err := o.Local(p.Flat, 0, 3, g0a); err != nil {
		t.Fatal(err)
	}
	if err := o.Local(p.Flat, 0, 3, g0b); err != nil {
		t.Fatal(err)
	}
	if err := o.Local(p.Flat, 1, 3, g1); err != nil {
		t.Fatal(err)
	}
	if !g0a.Equal(g0b) {
		t.Fatal("same (worker, iter) must reproduce the same gradient")
	}
	if g0a.Equal(g1) {
		t.Fatal("different workers should see different noise")
	}
	md, _ := g0a.MaxAbsDiff(g1)
	if md > 0.4+1e-6 {
		t.Fatalf("noise exceeds 2x half-width: %v", md)
	}
}

func TestZeroNoiseWorkersAgree(t *testing.T) {
	spec := model.Tiny(2, 16)
	o, _ := New(spec, 5, 0)
	p := model.NewParams(spec)
	p.InitUniform(1)
	a := tensor.New(spec.NumParams())
	b := tensor.New(spec.NumParams())
	_ = o.Local(p.Flat, 0, 0, a)
	_ = o.Local(p.Flat, 7, 0, b)
	if !a.Equal(b) {
		t.Fatal("zero noise must make workers agree exactly")
	}
}

func TestSizeErrors(t *testing.T) {
	spec := model.Tiny(2, 4)
	o, _ := New(spec, 1, 0)
	if err := o.Local(tensor.New(3), 0, 0, tensor.New(8)); err == nil {
		t.Fatal("want params size error")
	}
	if err := o.Local(tensor.New(8), 0, 0, tensor.New(3)); err == nil {
		t.Fatal("want out size error")
	}
	if err := o.LayerGrad(tensor.New(8), 0, 0, 5, tensor.New(4)); err == nil {
		t.Fatal("want layer range error")
	}
	if err := o.LayerGrad(tensor.New(8), 0, 0, 0, tensor.New(3)); err == nil {
		t.Fatal("want layer size error")
	}
	if _, err := o.Loss(tensor.New(5)); err == nil {
		t.Fatal("want loss size error")
	}
}

// Property: gradients are independent of layer evaluation order and the
// full gradient always equals the concatenation of layer gradients.
func TestLayerDecompositionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		spec := model.Tiny(1+r.Intn(6), 1+r.Intn(30))
		o, err := New(spec, seed, 0.05)
		if err != nil {
			return false
		}
		p := model.NewParams(spec)
		p.InitUniform(seed)
		full := tensor.New(spec.NumParams())
		if o.Local(p.Flat, 1, 2, full) != nil {
			return false
		}
		rebuilt := tensor.New(spec.NumParams())
		offsets := spec.LayerOffsets()
		// Evaluate layers in a scrambled order.
		for _, l := range r.Perm(len(spec.Layers)) {
			out := tensor.New(spec.Layers[l].Size)
			if o.LayerGrad(p.Flat, 1, 2, l, out) != nil {
				return false
			}
			copy(rebuilt[offsets[l]:offsets[l]+spec.Layers[l].Size], out)
		}
		return rebuilt.Equal(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
