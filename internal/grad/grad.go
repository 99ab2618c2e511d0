// Package grad is the synthetic gradient oracle that stands in for
// forward/backward passes over real datasets. The objective is a
// deterministic quadratic bowl per model: L(x) = ||x - x*||², whose
// gradient 2(x - x*) is computed analytically, plus bounded per-worker
// pseudo-noise so workers disagree like data-parallel shards do.
//
// Why this substitution is sound: checkpointing code interacts with
// training only through gradient tensors (their layout, size, and when
// they are produced) and the optimizer update. The oracle produces real
// layer-structured gradients in reverse layer order (backward-pass order),
// training genuinely converges, and recovered models can be compared
// bit-exactly against live ones.
//
// The oracle is every strategy's backward pass, so every measured step is
// measured against its cost. A layer is one pass over parameters and
// target: the noise stream's SplitMix64 counter stays in a register (in
// four 64-bit lanes per register on an AVX2 CPU, see kernel_amd64.s), and
// the result equals, bit for bit, the two-pass loop the oracle once ran,
// which its tests keep as the reference.
package grad

import (
	"fmt"
	"math"

	"lowdiff/internal/model"
	"lowdiff/internal/tensor"
)

// Oracle produces deterministic synthetic gradients for a model spec.
type Oracle struct {
	spec    model.Spec
	target  tensor.Vector // the bowl minimum x*
	noise   float64       // uniform noise half-width added per worker
	seed    uint64
	offsets []int // flat offset of each layer, from spec.LayerOffsets
	order   []int // BackwardOrder's layer indices
}

// New creates an oracle for spec. seed fixes the bowl minimum and the noise
// streams; noise sets the per-worker disagreement half-width (0 disables),
// which must be finite and non-negative.
func New(spec model.Spec, seed uint64, noise float64) (*Oracle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if !(noise >= 0 && noise <= math.MaxFloat64) { // NaN fails both
		return nil, fmt.Errorf("grad: noise half-width %v must be finite and non-negative", noise)
	}
	o := &Oracle{spec: spec, noise: noise, seed: seed, offsets: spec.LayerOffsets()}
	n := len(spec.Layers)
	o.order = make([]int, n)
	for i := range o.order {
		o.order[i] = n - 1 - i
	}
	o.target = tensor.New(spec.NumParams())
	r := tensor.NewRNG(seed ^ 0xa5a5a5a5a5a5a5a5)
	r.FillUniform(o.target, -0.5, 0.5)
	return o, nil
}

// Loss returns the bowl objective at params.
func (o *Oracle) Loss(params tensor.Vector) (float64, error) {
	if len(params) != len(o.target) {
		return 0, fmt.Errorf("grad: loss over %d params, want %d", len(params), len(o.target))
	}
	var s float64
	for i, x := range params {
		d := float64(x - o.target[i])
		s += d * d
	}
	return s, nil
}

// noiseSeed returns the seed of the noise stream for (worker, iter,
// layer), independent of call order so layer-wise and whole-model
// gradients agree exactly.
func (o *Oracle) noiseSeed(worker, iter, layer int) uint64 {
	h := o.seed
	h ^= uint64(worker+1) * 0x9e3779b97f4a7c15
	h ^= uint64(iter+1) * 0xc2b2ae3d27d4eb4f
	h ^= uint64(layer+1) * 0x165667b19e3779f9
	return h
}

// Local computes worker w's full gradient at iteration iter for params,
// writing it into out (length = NumParams).
func (o *Oracle) Local(params tensor.Vector, worker, iter int, out tensor.Vector) error {
	if len(params) != len(o.target) || len(out) != len(o.target) {
		return fmt.Errorf("grad: local gradient size mismatch: params %d, out %d, want %d",
			len(params), len(out), len(o.target))
	}
	for l, layer := range o.spec.Layers {
		off := o.offsets[l]
		o.layerInto(params, worker, iter, l, out[off:off+layer.Size])
	}
	return nil
}

// LayerGrad computes worker w's gradient for a single layer (by index),
// writing it into out (length = layer size). Gradients are conventionally
// consumed in reverse layer order; the value is independent of order.
func (o *Oracle) LayerGrad(params tensor.Vector, worker, iter, layer int, out tensor.Vector) error {
	if layer < 0 || layer >= len(o.spec.Layers) {
		return fmt.Errorf("grad: layer %d out of range [0,%d)", layer, len(o.spec.Layers))
	}
	if len(out) != o.spec.Layers[layer].Size {
		return fmt.Errorf("grad: layer %d gradient length %d, want %d", layer, len(out), o.spec.Layers[layer].Size)
	}
	o.layerInto(params, worker, iter, layer, out)
	return nil
}

// layerInto writes layer's gradient into out in one pass: 2(p − x*), plus
// half·(2u − 1) when there is noise, u the layer stream's next Float32.
func (o *Oracle) layerInto(params tensor.Vector, worker, iter, layer int, out tensor.Vector) {
	off := o.offsets[layer]
	p, t := params[off:off+len(out)], o.target[off:off+len(out)]
	if o.noise > 0 {
		noisyGrad(out, p, t, float32(o.noise), o.noiseSeed(worker, iter, layer))
		return
	}
	for i := range out {
		out[i] = 2 * (p[i] - t[i])
	}
}

// gradGo writes a layer's noisy gradient: element i is the draw
// half·(2u − 1) plus 2(p[i] − t[i]), u the i-th Float32 of
// tensor.NewRNG(s), with the stream's counter in a register instead of
// behind a pointer. Both terms are rounded to float32 before the sum, so
// no multiply-add is fused. For a finite half-width the draw is never NaN,
// so a NaN result carries the gradient term's payload, as the two-pass
// loop's did. p and t are at least as long as out.
func gradGo(out, p, t []float32, half float32, s uint64) {
	p, t = p[:len(out)], t[:len(out)]
	for i := range out {
		s += tensor.Gamma
		out[i] = float32(half*(2*tensor.Unit32(tensor.Mix64(s))-1)) + float32(2*(p[i]-t[i]))
	}
}

// BackwardOrder returns the layer indices in gradient-production order
// (last layer first), the order LowDiff+ snapshots layers in. The slice is
// the oracle's own; callers must not modify it.
func (o *Oracle) BackwardOrder() []int { return o.order }
