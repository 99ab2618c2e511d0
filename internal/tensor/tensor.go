// Package tensor provides the dense float32 vector math that underpins the
// functional training layer: parameter vectors, gradient buffers, fused
// axpy-style kernels, chunked views, and deterministic pseudo-random fills.
//
// Everything is flat. A model's parameters are a single []float32 arena that
// layers view as sub-slices; this mirrors how fused optimizers treat GPU
// parameter storage and keeps checkpoint serialization trivial.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Vector is a dense float32 vector. The zero value is an empty vector.
type Vector []float32

// New returns a zeroed vector of length n.
func New(n int) Vector {
	return make(Vector, n)
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// CopyFrom copies src into v. The lengths must match.
func (v Vector) CopyFrom(src Vector) error {
	if len(v) != len(src) {
		return fmt.Errorf("tensor: copy length mismatch: dst %d, src %d", len(v), len(src))
	}
	copy(v, src)
	return nil
}

// Zero sets every element to 0.
func (v Vector) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element to x.
func (v Vector) Fill(x float32) {
	for i := range v {
		v[i] = x
	}
}

// Axpy computes v += alpha*x elementwise. The lengths must match.
func (v Vector) Axpy(alpha float32, x Vector) error {
	if len(v) != len(x) {
		return fmt.Errorf("tensor: axpy length mismatch: dst %d, src %d", len(v), len(x))
	}
	for i, xv := range x {
		v[i] += alpha * xv
	}
	return nil
}

// Add computes v += x elementwise.
func (v Vector) Add(x Vector) error { return v.Axpy(1, x) }

// Sub computes v -= x elementwise.
func (v Vector) Sub(x Vector) error { return v.Axpy(-1, x) }

// Scale multiplies every element by alpha.
func (v Vector) Scale(alpha float32) {
	for i := range v {
		v[i] *= alpha
	}
}

// Dot returns the inner product <v, x> accumulated in float64 for stability.
func (v Vector) Dot(x Vector) (float64, error) {
	if len(v) != len(x) {
		return 0, fmt.Errorf("tensor: dot length mismatch: %d vs %d", len(v), len(x))
	}
	var s float64
	for i, a := range v {
		s += float64(a) * float64(x[i])
	}
	return s, nil
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, a := range v {
		s += float64(a) * float64(a)
	}
	return math.Sqrt(s)
}

// AbsMax returns the maximum absolute element value, or 0 for an empty vector.
func (v Vector) AbsMax() float32 {
	var m float32
	for _, a := range v {
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Equal reports whether v and x have identical length and equal elements
// under float comparison: NaNs compare unequal and -0 equals +0. Bit-identity
// claims use Identical.
func (v Vector) Equal(x Vector) bool {
	if len(v) != len(x) {
		return false
	}
	for i, a := range v {
		if a != x[i] {
			return false
		}
	}
	return true
}

// Identical reports whether v and x have identical length and bit-identical
// elements: -0 differs from +0, and a NaN matches only the same NaN.
func (v Vector) Identical(x Vector) bool {
	if len(v) != len(x) {
		return false
	}
	for i, a := range v {
		if math.Float32bits(a) != math.Float32bits(x[i]) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest |v[i]-x[i]|.
func (v Vector) MaxAbsDiff(x Vector) (float64, error) {
	if len(v) != len(x) {
		return 0, fmt.Errorf("tensor: diff length mismatch: %d vs %d", len(v), len(x))
	}
	var m float64
	for i, a := range v {
		d := math.Abs(float64(a) - float64(x[i]))
		if d > m {
			m = d
		}
	}
	return m, nil
}

// ErrBadChunk reports an invalid chunking request.
var ErrBadChunk = errors.New("tensor: invalid chunk request")

// Chunks splits v into n contiguous views covering v exactly. The first
// len(v)%n chunks are one element longer, matching the split used by ring
// all-reduce. Views alias v's storage.
func (v Vector) Chunks(n int) ([]Vector, error) {
	if n <= 0 {
		return nil, ErrBadChunk
	}
	out := make([]Vector, n)
	base := len(v) / n
	rem := len(v) % n
	off := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out[i] = v[off : off+sz]
		off += sz
	}
	return out, nil
}

// Gather copies the elements of v at the given indices into out, which must
// have the same length as idx. Indices must be in range.
func (v Vector) Gather(idx []int32, out Vector) error {
	if len(idx) != len(out) {
		return fmt.Errorf("tensor: gather length mismatch: idx %d, out %d", len(idx), len(out))
	}
	for i, j := range idx {
		if j < 0 || int(j) >= len(v) {
			return fmt.Errorf("tensor: gather index %d out of range [0,%d)", j, len(v))
		}
		out[i] = v[j]
	}
	return nil
}

// ScatterAdd adds vals[i] to v[idx[i]] for all i. Duplicate indices
// accumulate. Indices must be in range.
func (v Vector) ScatterAdd(idx []int32, vals Vector) error {
	if len(idx) != len(vals) {
		return fmt.Errorf("tensor: scatter length mismatch: idx %d, vals %d", len(idx), len(vals))
	}
	for i, j := range idx {
		if j < 0 || int(j) >= len(v) {
			return fmt.Errorf("tensor: scatter index %d out of range [0,%d)", j, len(v))
		}
		v[j] += vals[i]
	}
	return nil
}
