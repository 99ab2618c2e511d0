// Package compress implements the gradient compression codecs the paper
// builds on (§2.3): Top-K and random-K sparsification, int8 quantization,
// and an identity codec for the non-compressed LowDiff+ path.
//
// A Compressed value is the unit that flows through the whole system: it is
// what workers synchronize, what the reusing queue carries, what a
// differential checkpoint stores, and what the batched writer accumulates.
// Sparse accumulation (MergeWith) is the "gradient batching" primitive of
// §4.2 — the union-sum of sparse gradients.
//
// Every hot loop in this package has a pool-aware variant (AddIntoWith,
// DecompressWith, MergeWith, EncodeWith, DecodeWith, and the pooled
// compressor constructors). Sharding follows the fixed-chunk-grid contract
// of package parallel, so results are bit-identical to the serial reference
// at any worker count. NaN gradient entries are out of contract for TopK:
// they break the strict (|v| desc, index asc) total order the parallel
// selection relies on.
package compress

import (
	"errors"
	"fmt"
	"math"

	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
)

// Typed sentinel errors for payload shapes that would otherwise produce
// silently corrupt unions. Callers match with errors.Is.
var (
	// ErrZeroScale marks an int8 payload claiming Scale == 0 while carrying
	// nonzero quantized bytes: those bytes would silently decompress to an
	// all-zero gradient.
	ErrZeroScale = errors.New("compress: zero-scale quantized payload carries nonzero bytes")
	// ErrMergeEmpty marks a merge of zero gradients.
	ErrMergeEmpty = errors.New("compress: merge of zero gradients")
	// ErrMergeLength marks a merge of payloads with mismatched dense length.
	ErrMergeLength = errors.New("compress: merge dense-length mismatch")
	// ErrMergeQuantized marks a merge involving a quantized payload, whose
	// union-sum is undefined without dequantizing first.
	ErrMergeQuantized = errors.New("compress: cannot merge quantized gradient")
	// ErrMergeInvalid marks a merge input that fails Validate; the k-way
	// union relies on the strictly-increasing index invariant.
	ErrMergeInvalid = errors.New("compress: merge input invalid")
)

// Compressed is a compressed gradient. Exactly one payload family is
// populated: sparse codecs use Idx/Vals, quantized codecs use Q/Scale, and
// the identity codec uses Vals alone (Idx nil, len(Vals) == N).
type Compressed struct {
	Codec string  // codec name ("topk", "randk", "int8", "identity")
	N     int     // dense (logical) length
	Idx   []int32 // sparse indices, strictly increasing
	Vals  []float32
	Q     []byte  // quantized payload
	Scale float32 // quantization scale
}

// Bytes returns the wire size of the compressed payload: the transmission
// and storage cost the paper's Finding 2 reasons about.
func (c *Compressed) Bytes() int64 {
	var n int64
	n += int64(len(c.Idx)) * 4
	n += int64(len(c.Vals)) * 4
	n += int64(len(c.Q))
	if len(c.Q) > 0 {
		n += 4 // scale
	}
	return n
}

// NNZ returns the number of carried values.
func (c *Compressed) NNZ() int {
	if len(c.Q) > 0 {
		return len(c.Q)
	}
	return len(c.Vals)
}

// Clone deep-copies the compressed gradient.
func (c *Compressed) Clone() *Compressed {
	out := &Compressed{Codec: c.Codec, N: c.N, Scale: c.Scale}
	if c.Idx != nil {
		out.Idx = append([]int32(nil), c.Idx...)
	}
	if c.Vals != nil {
		out.Vals = append([]float32(nil), c.Vals...)
	}
	if c.Q != nil {
		out.Q = append([]byte(nil), c.Q...)
	}
	return out
}

// Validate checks internal consistency.
func (c *Compressed) Validate() error {
	if c.N < 0 {
		return fmt.Errorf("compress: negative dense length %d", c.N)
	}
	switch {
	case len(c.Q) > 0:
		if len(c.Idx) != 0 || len(c.Vals) != 0 {
			return fmt.Errorf("compress: quantized payload mixed with sparse payload")
		}
		if len(c.Q) != c.N {
			return fmt.Errorf("compress: quantized payload length %d != N %d", len(c.Q), c.N)
		}
		if c.Scale == 0 {
			for i, q := range c.Q {
				if q != 0 {
					return fmt.Errorf("%w (first at byte %d)", ErrZeroScale, i)
				}
			}
		}
	case c.Idx != nil:
		if len(c.Idx) != len(c.Vals) {
			return fmt.Errorf("compress: idx length %d != vals length %d", len(c.Idx), len(c.Vals))
		}
		prev := int32(-1)
		for _, j := range c.Idx {
			if j <= prev {
				return fmt.Errorf("compress: indices not strictly increasing at %d", j)
			}
			if int(j) >= c.N {
				return fmt.Errorf("compress: index %d out of range [0,%d)", j, c.N)
			}
			prev = j
		}
	default:
		if len(c.Vals) != c.N {
			return fmt.Errorf("compress: dense payload length %d != N %d", len(c.Vals), c.N)
		}
	}
	return nil
}

// AddInto scatter-adds the decompressed gradient into dense (length N).
// This is how the optimizer, the CPU replica, and recovery apply a
// compressed gradient without materializing an intermediate vector.
func (c *Compressed) AddInto(dense tensor.Vector) error {
	return c.AddIntoWith(nil, dense)
}

// AddIntoWith is AddInto sharded over pool. The quantized and dense paths
// are element-independent; the sparse path writes each dense[Idx[i]] from
// exactly one shard because indices are strictly increasing (the parallel
// path verifies that invariant before applying, so hand-built invalid
// payloads fail with an error rather than racing). On error the contents
// of dense are unspecified, as in the serial path. Results are
// bit-identical to AddInto.
func (c *Compressed) AddIntoWith(pool *parallel.Pool, dense tensor.Vector) error {
	if len(dense) != c.N {
		return fmt.Errorf("compress: AddInto length %d, want %d", len(dense), c.N)
	}
	if pool.Workers() == 1 {
		return c.addIntoSerial(dense)
	}
	switch {
	case len(c.Q) > 0:
		//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
		pool.ForEach(len(c.Q), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				dense[i] += float32(int8(c.Q[i])) * c.Scale
			}
		})
	case c.Idx != nil:
		es := getErrs(pool.NumChunks(len(c.Idx)))
		errs := es.v
		//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
		pool.ForEach(len(c.Idx), func(s, lo, hi int) {
			prev := int32(-1)
			if lo > 0 {
				prev = c.Idx[lo-1]
			}
			for i := lo; i < hi; i++ {
				j := c.Idx[i]
				if j <= prev || int(j) >= c.N {
					errs[s] = fmt.Errorf("compress: AddInto index %d out of order or range [0,%d)", j, c.N)
					return
				}
				prev = j
			}
			for i := lo; i < hi; i++ {
				dense[c.Idx[i]] += c.Vals[i]
			}
		})
		for _, err := range errs {
			if err != nil {
				es.release()
				return err
			}
		}
		es.release()
	default:
		//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
		pool.ForEach(len(c.Vals), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				dense[i] += c.Vals[i]
			}
		})
	}
	return nil
}

func (c *Compressed) addIntoSerial(dense tensor.Vector) error {
	switch {
	case len(c.Q) > 0:
		for i, q := range c.Q {
			dense[i] += float32(int8(q)) * c.Scale
		}
	case c.Idx != nil:
		for i, j := range c.Idx {
			if j < 0 || int(j) >= c.N {
				return fmt.Errorf("compress: AddInto index %d out of range [0,%d)", j, c.N)
			}
			dense[j] += c.Vals[i]
		}
	default:
		for i, v := range c.Vals {
			dense[i] += v
		}
	}
	return nil
}

// Decompress writes the dense gradient into out (length N), overwriting it.
func (c *Compressed) Decompress(out tensor.Vector) error {
	return c.DecompressWith(nil, out)
}

// DecompressWith is Decompress sharded over pool; bit-identical to the
// serial path.
func (c *Compressed) DecompressWith(pool *parallel.Pool, out tensor.Vector) error {
	if len(out) != c.N {
		return fmt.Errorf("compress: decompress into length %d, want %d", len(out), c.N)
	}
	out.Zero()
	return c.AddIntoWith(pool, out)
}

// Compressor turns a dense gradient into a Compressed payload.
type Compressor interface {
	// Compress encodes grad. The result does not alias grad.
	Compress(grad tensor.Vector) (*Compressed, error)
	// Name identifies the codec.
	Name() string
	// Ratio returns the nominal compression ratio ρ (carried values / N),
	// or 1 for non-sparsifying codecs.
	Ratio() float64
}

// ceilK returns k = ceil(ρ·n) clamped to [1, n] — the exact count both
// sparsifiers document. (A previous revision used int(ρ·n + 0.999999),
// which floors products with a fractional part below 1e-6 and so
// under-counts right where ρ·n is meant to land on an exact boundary.)
func ceilK(n int, rho float64) int {
	k := int(math.Ceil(float64(n) * rho))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// TopK selects the k = ceil(ρ·N) entries of largest magnitude (the common
// sparsification scheme; ties break toward the lower index so compression
// is deterministic).
type TopK struct {
	R    float64 // ratio ρ in (0, 1]
	Pool *parallel.Pool
}

// NewTopK returns a serial Top-K compressor with ratio ρ.
func NewTopK(rho float64) (*TopK, error) {
	return NewTopKPooled(rho, nil)
}

// NewTopKPooled returns a Top-K compressor sharding selection over pool.
func NewTopKPooled(rho float64, pool *parallel.Pool) (*TopK, error) {
	if rho <= 0 || rho > 1 {
		return nil, fmt.Errorf("compress: topk ratio %v out of (0,1]", rho)
	}
	return &TopK{R: rho, Pool: pool}, nil
}

// Name implements Compressor.
func (t *TopK) Name() string { return "topk" }

// Ratio implements Compressor.
func (t *TopK) Ratio() float64 { return t.R }

// Compress implements Compressor.
func (t *TopK) Compress(grad tensor.Vector) (*Compressed, error) {
	n := len(grad)
	k := ceilK(n, t.R)
	idx := t.selectIndices(grad, k)
	vals := make([]float32, len(idx))
	//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
	t.Pool.ForEach(len(idx), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] = grad[idx[i]]
		}
	})
	return &Compressed{Codec: "topk", N: n, Idx: idx, Vals: vals}, nil
}

// selectIndices picks the top-k set. The parallel path selects per-chunk
// candidates and reselects globally: under the strict (|v| desc, index asc)
// total order, the global top-k members inside any chunk are necessarily
// among that chunk's local top-k, so the candidate union contains the exact
// serial answer. It is used only when the candidate list stays well below
// n, otherwise sharding is pure overhead.
func (t *TopK) selectIndices(grad tensor.Vector, k int) []int32 {
	n := len(grad)
	pool := t.Pool
	chunks := pool.NumChunks(n)
	if pool.Workers() == 1 || chunks <= 1 || 2*k*chunks >= n {
		return topKRange(grad, 0, n, k)
	}
	// Each chunk writes its candidates into its own disjoint segment of one
	// shared scratch buffer; compaction then packs them in ascending shard
	// order.
	scratch := getI32(k * chunks)
	cand := scratch.v
	cs := getInts(chunks)
	counts := cs.v
	//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
	pool.ForEach(n, func(s, lo, hi int) {
		kk := k
		if kk > hi-lo {
			kk = hi - lo
		}
		counts[s] = kk
		topKUnsortedInto(grad, lo, hi, cand[s*k:s*k+kk])
	})
	w := counts[0]
	for s := 1; s < chunks; s++ {
		copy(cand[w:], cand[s*k:s*k+counts[s]])
		w += counts[s]
	}
	// Reselect under the same total order; strictness (unique indices)
	// makes the selected set independent of candidate order.
	out := topKOf(grad, cand[:w], k)
	cs.release()
	scratch.release()
	return out
}

// Selection runs on packed strength keys: |v|'s float bits in the high
// word and the bitwise complement of the index in the low word, so one
// uint64 compare is exactly the (|v| desc, lower-index-wins) total order.
// IEEE-754 bit patterns of non-negative floats order the same as their
// values, which is what lets the magnitude ride in the high bits. Keys are
// unique (the index bits differ), so the selected SET is independent of
// the pivot sequence — quickselect stays deterministic by construction.

// strengthKey packs g's entry at index j into its selection key.
func strengthKey(v float32, j int32) uint64 {
	abs := uint64(math.Float32bits(v) &^ (1 << 31)) // clear the sign: |v| bits
	return abs<<32 | uint64(^uint32(j))
}

// keyIndex recovers the dense index from a strength key.
func keyIndex(key uint64) int32 { return int32(^uint32(key)) }

// topKRange returns the indices of the k largest-magnitude entries of
// g[lo:hi] as global indices in increasing order. Ties break toward the
// lower index.
func topKRange(g tensor.Vector, lo, hi, k int) []int32 {
	out := topKUnsorted(g, lo, hi, k)
	sortI32(out)
	return out
}

// topKUnsorted is topKRange without the final ascending sort — the selected
// set in unspecified order.
func topKUnsorted(g tensor.Vector, lo, hi, k int) []int32 {
	span := hi - lo
	if k > span {
		k = span
	}
	out := make([]int32, k)
	topKUnsortedInto(g, lo, hi, out)
	return out
}

// topKUnsortedInto writes the len(out) strongest indices of g[lo:hi] into
// out in unspecified order — the per-chunk candidate pass, where each chunk
// owns a disjoint segment of a shared scratch buffer. len(out) must be at
// most hi-lo.
func topKUnsortedInto(g tensor.Vector, lo, hi int, out []int32) {
	span, k := hi-lo, len(out)
	if k >= span {
		for i := range out {
			out[i] = int32(lo + i)
		}
		return
	}
	ks := getU64(span)
	keys := ks.v
	for i := 0; i < span; i++ {
		j := lo + i
		keys[i] = strengthKey(g[j], int32(j))
	}
	quickSelectKeys(keys, k)
	for i := range out {
		out[i] = keyIndex(keys[i])
	}
	ks.release()
}

// topKOf returns the indices of the k strongest entries among cand (global
// indices into g, assumed unique) in increasing index order, under the same
// total order as topKRange — the reselect step of the sharded selection.
func topKOf(g tensor.Vector, cand []int32, k int) []int32 {
	if k >= len(cand) {
		out := make([]int32, len(cand))
		copy(out, cand)
		sortI32(out)
		return out
	}
	ks := getU64(len(cand))
	keys := ks.v
	for i, j := range cand {
		keys[i] = strengthKey(g[j], j)
	}
	quickSelectKeys(keys, k)
	out := make([]int32, k)
	for i := range out {
		out[i] = keyIndex(keys[i])
	}
	ks.release()
	sortI32(out)
	return out
}

// quickSelectKeys partitions keys so keys[:k] holds the k largest, in
// unspecified order. Average O(len(keys)) with a median-of-three pivot;
// keys are unique, so every pivot sequence converges on the same set.
func quickSelectKeys(keys []uint64, k int) {
	lo, hi := 0, len(keys)-1
	for lo < hi {
		p := partitionKeys(keys, lo, hi)
		switch {
		case p == k-1 || p == k:
			// keys[:k] are all >= keys[p] and everything after p is
			// smaller: the top-k set is settled.
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// partitionKeys partitions keys[lo:hi+1] descending around a median-of-three
// pivot and returns the pivot's final position: everything before it is
// strictly larger, everything after strictly smaller.
func partitionKeys(keys []uint64, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if keys[mid] > keys[lo] {
		keys[mid], keys[lo] = keys[lo], keys[mid]
	}
	if keys[hi] > keys[lo] {
		keys[hi], keys[lo] = keys[lo], keys[hi]
	}
	if keys[hi] > keys[mid] {
		keys[hi], keys[mid] = keys[mid], keys[hi]
	}
	// keys[lo] >= keys[mid] >= keys[hi]; park the median at hi as pivot.
	keys[mid], keys[hi] = keys[hi], keys[mid]
	pivot := keys[hi]
	i := lo
	for j := lo; j < hi; j++ {
		if keys[j] > pivot {
			keys[i], keys[j] = keys[j], keys[i]
			i++
		}
	}
	keys[i], keys[hi] = keys[hi], keys[i]
	return i
}

// RandK selects k = ceil(ρ·N) pseudo-random indices per call from a seeded
// stream via a partial Fisher–Yates shuffle over a pooled dense-stride
// buffer: exactly k generator draws per call, O(n + k) work, no per-call
// map. Determinism contract: the same construction seed and the same
// sequence of Compress calls (gradient lengths) yield the same indices —
// each call of length n consumes exactly k draws, independent of the
// gradient values. Compress is not safe for concurrent use (the generator
// stream is inherently serial).
type RandK struct {
	R    float64
	Pool *parallel.Pool
	rng  *tensor.RNG
}

// NewRandK returns a serial random-K compressor with ratio ρ and the given
// seed.
func NewRandK(rho float64, seed uint64) (*RandK, error) {
	return NewRandKPooled(rho, seed, nil)
}

// NewRandKPooled returns a random-K compressor sharding the dense scans
// (buffer reset, value gather) over pool; the draw sequence itself stays
// serial so the seeded-stream contract holds at any worker count.
func NewRandKPooled(rho float64, seed uint64, pool *parallel.Pool) (*RandK, error) {
	if rho <= 0 || rho > 1 {
		return nil, fmt.Errorf("compress: randk ratio %v out of (0,1]", rho)
	}
	return &RandK{R: rho, Pool: pool, rng: tensor.NewRNG(seed)}, nil
}

// Name implements Compressor.
func (r *RandK) Name() string { return "randk" }

// Ratio implements Compressor.
func (r *RandK) Ratio() float64 { return r.R }

// Compress implements Compressor.
func (r *RandK) Compress(grad tensor.Vector) (*Compressed, error) {
	n := len(grad)
	k := ceilK(n, r.R)
	scratch := getI32(n)
	perm := scratch.v
	//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
	r.Pool.ForEach(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			perm[i] = int32(i)
		}
	})
	// Partial Fisher–Yates: after i swaps, perm[:i] is a uniform i-subset.
	for i := 0; i < k; i++ {
		j := i + r.rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	idx := append([]int32(nil), perm[:k]...)
	scratch.release()
	sortI32(idx)
	vals := make([]float32, k)
	//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
	r.Pool.ForEach(k, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] = grad[idx[i]]
		}
	})
	return &Compressed{Codec: "randk", N: n, Idx: idx, Vals: vals}, nil
}

// Int8 quantizes each element to 8 bits with a per-tensor absmax scale.
type Int8 struct {
	Pool *parallel.Pool
}

// Name implements Compressor.
func (Int8) Name() string { return "int8" }

// Ratio implements Compressor.
func (Int8) Ratio() float64 { return 1 }

// Compress implements Compressor.
func (q8 Int8) Compress(grad tensor.Vector) (*Compressed, error) {
	n := len(grad)
	q := make([]byte, n)
	pool := q8.Pool
	var mx float32
	if pool.Workers() > 1 && pool.NumChunks(n) > 1 {
		// Per-shard absmax, combined in ascending shard order. Max is
		// insensitive to grouping, so this is exactly grad.AbsMax().
		ms := getF32(pool.NumChunks(n))
		maxes := ms.v
		//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
		pool.ForEach(n, func(s, lo, hi int) {
			maxes[s] = grad[lo:hi].AbsMax()
		})
		for _, m := range maxes {
			if m > mx {
				mx = m
			}
		}
		ms.release()
	} else {
		mx = grad.AbsMax()
	}
	if mx == 0 {
		return &Compressed{Codec: "int8", N: n, Q: q, Scale: 0}, nil
	}
	scale := mx / 127
	inv := 1 / scale
	//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
	pool.ForEach(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			x := grad[i] * inv
			switch {
			case x > 127:
				x = 127
			case x < -127:
				x = -127
			}
			if x >= 0 {
				q[i] = byte(int8(x + 0.5))
			} else {
				q[i] = byte(int8(x - 0.5))
			}
		}
	})
	return &Compressed{Codec: "int8", N: n, Q: q, Scale: scale}, nil
}

// Identity passes the gradient through uncompressed (the LowDiff+ setting).
type Identity struct{}

// Name implements Compressor.
func (Identity) Name() string { return "identity" }

// Ratio implements Compressor.
func (Identity) Ratio() float64 { return 1 }

// Compress implements Compressor.
func (Identity) Compress(grad tensor.Vector) (*Compressed, error) {
	return &Compressed{Codec: "identity", N: len(grad), Vals: append([]float32(nil), grad...)}, nil
}

// New constructs a serial compressor by name. rho is ignored by
// non-sparsifying codecs; seed is used only by randk.
func New(name string, rho float64, seed uint64) (Compressor, error) {
	return NewPooled(name, rho, seed, nil)
}

// NewPooled constructs a compressor by name with its dense loops sharded
// over pool (nil pool means serial). Compression output is bit-identical
// at any worker count.
func NewPooled(name string, rho float64, seed uint64, pool *parallel.Pool) (Compressor, error) {
	switch name {
	case "topk":
		return NewTopKPooled(rho, pool)
	case "randk":
		return NewRandKPooled(rho, seed, pool)
	case "int8":
		return Int8{Pool: pool}, nil
	case "identity", "none", "":
		return Identity{}, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
}

// MergeWith returns the union-sum of sparse compressed gradients, sharded
// over pool (nil means serial): the batching primitive behind §4.2's batched
// gradient writes and the paper's gradient accumulation. All inputs must be
// valid and sparse (or identity) with the same N; quantized, mismatched, or
// invalid inputs fail with typed errors rather than producing a corrupt
// union. Sparse parts are combined with a k-way walk over their sorted index
// lists (per index, values add in part order — exactly the serial
// reference); the parallel path shards the dense index space and
// concatenates per-chunk unions in ascending chunk order, so the result is
// bit-identical at any worker count.
func MergeWith(pool *parallel.Pool, parts ...*Compressed) (*Compressed, error) {
	if len(parts) == 0 {
		return nil, ErrMergeEmpty
	}
	n := parts[0].N
	dense := false
	for pi, p := range parts {
		if p.N != n {
			return nil, fmt.Errorf("%w: part %d has N=%d, want %d", ErrMergeLength, pi, p.N, n)
		}
		if len(p.Q) > 0 {
			return nil, fmt.Errorf("%w (part %d, codec %q); dequantize first", ErrMergeQuantized, pi, p.Codec)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%w: part %d (codec %q): %v", ErrMergeInvalid, pi, p.Codec, err)
		}
		if p.Idx == nil {
			dense = true
		}
	}
	if dense {
		// Any dense input forces a dense result.
		out := make([]float32, n)
		v := tensor.Vector(out)
		for _, p := range parts {
			if err := p.AddIntoWith(pool, v); err != nil {
				return nil, err
			}
		}
		return &Compressed{Codec: "merged", N: n, Vals: out}, nil
	}
	bound := 0
	for _, p := range parts {
		bound += len(p.Idx)
	}
	if bound > n {
		bound = n
	}
	chunks := pool.NumChunks(n)
	if pool.Workers() == 1 || chunks <= 1 {
		idx := make([]int32, 0, bound)
		vals := make([]float32, 0, bound)
		idx, vals = kwayMergeRange(parts, 0, int32(n), idx, vals)
		return &Compressed{Codec: "merged", N: n, Idx: idx, Vals: vals}, nil
	}
	// Every shard appends into its own disjoint, exactly-bounded segment
	// of one pooled buffer (a shard's union size is at most its dense
	// span and at most the global index total), so the per-shard merges
	// never grow their destinations and the only per-call allocations are
	// the exact-size result slices.
	span := pool.ChunkSize()
	segCap := span
	if bound < segCap {
		segCap = bound
	}
	is := getI32(chunks * segCap)
	vs := getF32(chunks * segCap)
	ls := getInts(chunks)
	segIdx, segVals, lens := is.v, vs.v, ls.v
	//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
	pool.ForEach(n, func(s, lo, hi int) {
		seg := s * segCap
		i, _ := kwayMergeRange(parts, int32(lo), int32(hi),
			segIdx[seg:seg:seg+segCap], segVals[seg:seg:seg+segCap])
		lens[s] = len(i)
	})
	total := 0
	for s := 0; s < chunks; s++ {
		total += lens[s]
	}
	idx := make([]int32, 0, total)
	vals := make([]float32, 0, total)
	for s := 0; s < chunks; s++ { // ascending chunk order = ascending index order
		seg := s * segCap
		idx = append(idx, segIdx[seg:seg+lens[s]]...)
		vals = append(vals, segVals[seg:seg+lens[s]]...)
	}
	ls.release()
	vs.release()
	is.release()
	return &Compressed{Codec: "merged", N: n, Idx: idx, Vals: vals}, nil
}

// kwayMergeRange appends the union-sum of the parts restricted to dense
// indices [lo, hi) onto idx/vals. Parts must be sparse with strictly
// increasing indices. For each output index the contributions are added in
// part order, matching the serial single-pass reference bit for bit. Callers
// pass destinations pre-sized to the union bound, so the appends never grow.
func kwayMergeRange(parts []*Compressed, lo, hi int32, idx []int32, vals []float32) ([]int32, []float32) {
	ps := getInts(len(parts))
	defer ps.release()
	pos := ps.v
	for pi, p := range parts {
		pos[pi] = searchI32GE(p.Idx, lo)
	}
	for {
		best := hi
		for pi, p := range parts {
			if pos[pi] < len(p.Idx) && p.Idx[pos[pi]] < best {
				best = p.Idx[pos[pi]]
			}
		}
		if best >= hi {
			return idx, vals
		}
		var sum float32
		for pi, p := range parts {
			if pos[pi] < len(p.Idx) && p.Idx[pos[pi]] == best {
				sum += p.Vals[pos[pi]]
				pos[pi]++
			}
		}
		idx = append(idx, best)
		vals = append(vals, sum)
	}
}
