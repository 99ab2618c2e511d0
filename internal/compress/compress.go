// Package compress implements the gradient codecs the system trains with:
// Top-K sparsification (§2.3), whose output LowDiff reuses as its
// differential, and an identity codec for the dense paths.
//
// A Compressed value is the unit that flows through the whole system: it is
// what workers synchronize, what the reusing queue carries, what a
// differential checkpoint stores, and what the batched writer accumulates.
// Sparse accumulation (Merge) is the "gradient batching" primitive of
// §4.2 — the union-sum of sparse gradients.
//
// Training runs every kernel here serially. Only the scatter-add that
// recovery replays has a pool-aware variant (AddIntoWith); it follows the
// fixed-chunk-grid contract of package parallel, so its result is
// bit-identical to AddInto at any worker count. The wire codec (Encode,
// Decode, and the FieldWriter and FieldReader both record formats share,
// with WriteVector and ReadVector under them) has no loop on a
// little-endian host: a vector's memory is its wire bytes, read and
// written in place. NaN gradient entries are out of
// contract for TopK: they break the strict (|v| desc, index asc) total
// order the selection relies on.
package compress

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
)

// Typed sentinel errors for payload shapes that would otherwise produce
// silently corrupt unions. Callers match with errors.Is.
var (
	// ErrMergeEmpty marks a merge of zero gradients.
	ErrMergeEmpty = errors.New("compress: merge of zero gradients")
	// ErrMergeLength marks a merge of payloads with mismatched dense length.
	ErrMergeLength = errors.New("compress: merge dense-length mismatch")
	// ErrMergeInvalid marks a merge input that fails Validate; the k-way
	// union relies on the strictly-increasing index invariant.
	ErrMergeInvalid = errors.New("compress: merge input invalid")
)

// Compressed is a compressed gradient: sparse (Idx and Vals, as Top-K
// writes them) or dense (Vals alone, Idx nil, len(Vals) == N, as identity
// writes them).
type Compressed struct {
	Codec string  // codec name ("topk", "identity", "merged")
	N     int     // dense (logical) length
	Idx   []int32 // sparse indices, strictly increasing
	Vals  []float32
}

// Bytes returns the wire size of the compressed payload: the transmission
// and storage cost the paper's Finding 2 reasons about.
func (c *Compressed) Bytes() int64 {
	var n int64
	n += int64(len(c.Idx)) * 4
	n += int64(len(c.Vals)) * 4
	return n
}

// NNZ returns the number of carried values.
func (c *Compressed) NNZ() int { return len(c.Vals) }

// Clone deep-copies the compressed gradient.
func (c *Compressed) Clone() *Compressed {
	out := &Compressed{Codec: c.Codec, N: c.N}
	if c.Idx != nil {
		out.Idx = append([]int32(nil), c.Idx...)
	}
	if c.Vals != nil {
		out.Vals = append([]float32(nil), c.Vals...)
	}
	return out
}

// Validate checks internal consistency.
func (c *Compressed) Validate() error {
	if c.N < 0 {
		return fmt.Errorf("compress: negative dense length %d", c.N)
	}
	switch {
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

// AddIntoWith is AddInto sharded over pool. The dense path is
// element-independent; the sparse path writes each dense[Idx[i]] from
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
	case c.Idx != nil:
		es := getErrs(pool.NumChunks(len(c.Idx)))
		errs := es.v
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

// Decompress writes the dense gradient into out (length N), overwriting
// it. A dense payload is written in one pass as 0 + v, the value Zero then
// AddInto produce: not a copy, because 0 + (−0) is +0.
func (c *Compressed) Decompress(out tensor.Vector) error {
	if len(out) != c.N {
		return fmt.Errorf("compress: decompress into length %d, want %d", len(out), c.N)
	}
	if c.Idx == nil && len(c.Vals) == c.N {
		zeroPlus(out, c.Vals)
		return nil
	}
	out.Zero()
	return c.addIntoSerial(out)
}

// DecompressWith is Decompress; the pool is ignored.
//
// Deprecated: call Decompress.
func (c *Compressed) DecompressWith(_ *parallel.Pool, out tensor.Vector) error {
	return c.Decompress(out)
}

// zeroPlus sets out[i] = 0 + v[i]; len(v) must be at least len(out).
func zeroPlus(out, v tensor.Vector) {
	v = v[:len(out)]
	var zero float32
	for i := range out {
		out[i] = zero + v[i]
	}
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

// ceilK returns k = ceil(ρ·n) clamped to [1, n] — the exact count TopK
// documents. (A previous revision used int(ρ·n + 0.999999),
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
// is deterministic). The selection is serial (DESIGN.md §8 rule 3).
type TopK struct {
	R float64 // ratio ρ in (0, 1]
}

// NewTopK returns a Top-K compressor with ratio ρ.
func NewTopK(rho float64) (*TopK, error) {
	if !(0 < rho && rho <= 1) { // NaN fails both
		return nil, fmt.Errorf("compress: topk ratio %v out of (0,1]", rho)
	}
	return &TopK{R: rho}, nil
}

// Name implements Compressor.
func (t *TopK) Name() string { return "topk" }

// Ratio implements Compressor.
func (t *TopK) Ratio() float64 { return t.R }

// Compress implements Compressor.
func (t *TopK) Compress(grad tensor.Vector) (*Compressed, error) {
	idx, vals := topKSelect(grad, ceilK(len(grad), t.R))
	return &Compressed{Codec: "topk", N: len(grad), Idx: idx, Vals: vals}, nil
}

// Selection is one strict total order: |v| descending, the lower index
// winning ties. A strength key packs |v|'s float bits in the high word and
// the bitwise complement of the index in the low word, so one uint64
// compare is exactly that order. IEEE-754 bit patterns of non-negative
// floats order the same as their values, which is what lets the magnitude
// ride in the high bits. Keys are unique (the index bits differ), so the
// selected SET is independent of the pivot sequence — quickselect stays
// deterministic by construction.

// strengthKey packs g's entry at index j into its selection key.
func strengthKey(v float32, j int32) uint64 {
	abs := uint64(math.Float32bits(v) &^ (1 << 31)) // clear the sign: |v| bits
	return abs<<32 | uint64(^uint32(j))
}

// keyIndex recovers the dense index from a strength key.
func keyIndex(key uint64) int32 { return int32(^uint32(key)) }

// topKSelect returns the indices of the k largest-magnitude entries of g in
// increasing order, ties breaking toward the lower index, and their values.
// A strided sample sets a magnitude threshold t a little below the k-th
// strongest (threshold); one pass keeps, in index order, the strength keys
// of every entry whose |v| bits reach t (keepAtLeast); quickselect over a
// copy of those keys finds the k-th key, and a branch-free walk of the kept
// keys emits every index at or above it, already sorted, stopping at the
// k-th; a gather then reads their values. Whenever at least k entries
// reach t, the top k of the total order is among them, so the sample sets
// only the speed, never the result.
func topKSelect(g tensor.Vector, k int) ([]int32, []float32) {
	idx, vals := make([]int32, k), make([]float32, k)
	if k >= len(g) {
		for i := range idx {
			idx[i] = int32(i)
		}
		copy(vals, g)
		return idx, vals
	}
	s := topKPool.Get().(*topKScratch)
	kept := s.keepAtLeast(g, k, s.threshold(g, k))
	s.sel = append(s.sel[:0], kept...)
	quickSelectKeys(s.sel, k)
	kth := slices.Min(s.sel[:k])
	for i, w := 0, 0; w < k; i++ {
		key := kept[i]
		idx[w] = keyIndex(key)
		step := 0
		if key >= kth {
			step = 1
		}
		w += step
	}
	for i, j := range idx {
		vals[i] = g[j]
	}
	topKPool.Put(s)
	return idx, vals
}

// sampleSize is how many entries threshold samples. Below sampleMin
// entries the sample would be most of the gradient, so every entry is kept.
const (
	sampleSize = 4096
	sampleMin  = 4 * sampleSize
)

// threshold returns the |v| float bits that a little more than k of g's
// entries reach, estimated from a strided sample of sampleSize entries: the
// r-th strongest sampled magnitude, r = r₀ + 4√r₀ + 8 for the
// r₀ = k·sampleSize/n a perfect sample would need. The margin makes a sample that lies (fewer
// than k entries reach t) rare; keepAtLeast corrects one anyway. It returns
// 0, which every entry reaches, when the gradient is too small to sample or
// k is too large a share of it.
func (s *topKScratch) threshold(g tensor.Vector, k int) uint32 {
	n := len(g)
	if n < sampleMin {
		return 0
	}
	r0 := float64(sampleSize) * float64(k) / float64(n)
	r := int(math.Ceil(r0 + 4*math.Sqrt(r0) + 8))
	if r >= sampleSize {
		return 0
	}
	stride := n / sampleSize
	for i := range s.sample {
		j := i * stride
		s.sample[i] = strengthKey(g[j], int32(j))
	}
	quickSelectKeys(s.sample[:], r)
	return uint32(slices.Min(s.sample[:r]) >> 32)
}

// keepAtLeast returns the strength keys, in index order, of g's entries
// whose |v| bits reach t, or of every entry when fewer than k do: the
// candidates the top k is chosen from. The keys live in s.kept, which
// grows as needed and is reused by the next call.
func (s *topKScratch) keepAtLeast(g tensor.Vector, k int, t uint32) []uint64 {
	s.kept = s.keep(s.kept[:0], g, t)
	if len(s.kept) < k {
		s.kept = s.keep(s.kept[:0], g, 0)
	}
	return s.kept
}

// keepChunk is how many entries one call of the filter kernel reads: the
// in-chunk indices of its hits fit topKScratch's fixed index buffer.
const keepChunk = 4096

// keepBlock appends to kept the strength keys of g's entries whose |v|
// bits reach t, in index order; base is g[0]'s dense index. It is the
// filter off amd64, the tail of the kernel's, and its tests' oracle.
func keepBlock(kept []uint64, g tensor.Vector, base int, t uint32) []uint64 {
	for i, v := range g {
		if math.Float32bits(v)&^(1<<31) >= t {
			kept = append(kept, strengthKey(v, int32(base+i)))
		}
	}
	return kept
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
	// Branch-free Lomuto: every key swaps into keys[i], which advances past
	// it only when it beats the pivot, so random keys cost no mispredicts.
	for j := lo; j < hi; j++ {
		x := keys[j]
		keys[j] = keys[i]
		keys[i] = x
		step := 0
		if x > pivot {
			step = 1
		}
		i += step
	}
	keys[i], keys[hi] = keys[hi], keys[i]
	return i
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

// New constructs a compressor by name: "topk", or "identity" (also "none"
// and ""). rho is ignored by identity.
func New(name string, rho float64) (Compressor, error) {
	switch name {
	case "topk":
		return NewTopK(rho)
	case "identity", "none", "":
		return Identity{}, nil
	default:
		return nil, fmt.Errorf("compress: unknown codec %q", name)
	}
}

// NewPooled is New; seed and pool are ignored.
//
// Deprecated: call New.
func NewPooled(name string, rho float64, _ uint64, _ *parallel.Pool) (Compressor, error) {
	return New(name, rho)
}

// Merge returns the union-sum of sparse compressed gradients: the
// batching primitive behind §4.2's batched gradient writes and the paper's
// gradient accumulation. All inputs must be valid and sparse (or identity)
// with the same N; mismatched or invalid inputs fail with typed errors
// rather than producing a corrupt union. Sparse parts fold left to right
// through one branch-free two-way merge (merge2), so per index the values
// add in part order — exactly the reference's single pass. The result is
// the only allocation.
func Merge(parts ...*Compressed) (*Compressed, error) {
	if len(parts) == 0 {
		return nil, ErrMergeEmpty
	}
	n := parts[0].N
	dense := false
	total := 0
	for pi, p := range parts {
		if p.N != n {
			return nil, fmt.Errorf("%w: part %d has N=%d, want %d", ErrMergeLength, pi, p.N, n)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%w: part %d (codec %q): %v", ErrMergeInvalid, pi, p.Codec, err)
		}
		if p.Idx == nil {
			dense = true
		}
		total += len(p.Idx)
	}
	if dense {
		// Any dense input forces a dense result.
		out := make([]float32, n)
		v := tensor.Vector(out)
		for _, p := range parts {
			if err := p.AddInto(v); err != nil {
				return nil, err
			}
		}
		return &Compressed{Codec: "merged", N: n, Vals: out}, nil
	}
	// The union holds at most the parts' total count and at most n indices.
	idx, vals := make([]int32, min(total, n)), make([]float32, min(total, n))
	m := fold(parts, idx, vals)
	return &Compressed{Codec: "merged", N: n, Idx: idx[:m], Vals: vals[:m]}, nil
}

// MergeWith is Merge; the pool is ignored.
//
// Deprecated: call Merge.
func MergeWith(_ *parallel.Pool, parts ...*Compressed) (*Compressed, error) { return Merge(parts...) }

// fold writes the union-sum of the parts into idx/vals, which have room
// for the union, and returns its length. The parts fold left to right
// through merge2, the intermediates in pooled scratch, so per index the
// values add in part order, as the reference's single pass adds them.
// Fold p (p < k-1) writes the scratch pair p%2; each pair is sized to its
// largest intermediate, the union of the parts up to its last fold.
func fold(parts []*Compressed, idx []int32, vals []float32) int {
	k := len(parts)
	ai, av := parts[0].Idx, parts[0].Vals
	if k == 1 {
		return merge2(ai, av, nil, nil, idx, vals)
	}
	var size [2]int
	held := len(ai)
	for p := 1; p < k-1; p++ {
		held += len(parts[p].Idx)
		size[p%2] = min(held, len(idx))
	}
	var ti [2]*i32Scratch
	var tv [2]*f32Scratch
	for p := 1; p < k; p++ {
		bi, bv := parts[p].Idx, parts[p].Vals
		oi, ov := idx, vals
		if t := p % 2; p < k-1 {
			if ti[t] == nil {
				ti[t], tv[t] = getI32(size[t]), getF32(size[t])
			}
			oi, ov = ti[t].v, tv[t].v
		}
		m := merge2(ai, av, bi, bv, oi, ov)
		ai, av = oi[:m], ov[:m]
	}
	// Released in the order taken (pair 1 first), which is the order a
	// sync.Pool hands them back in, so the next fold gets each pair at the
	// size it last had.
	for _, t := range [2]int{1, 0} {
		if ti[t] != nil {
			ti[t].release()
			tv[t].release()
		}
	}
	return len(ai)
}

// merge2 writes the union-sum of two sorted sparse vectors into oi/ov,
// which have room for it, and returns its length. Per output it takes the
// smaller head index, and the value of each side whose head is that index
// (a side that is not adds +0), through sign masks rather than a
// data-dependent branch. It sums as the reference does — 0, then a's
// value, then b's — so a lone -0 lands as +0, and adding a masked +0 to a
// partial sum (which is never -0) changes no bit.
func merge2(ai []int32, av []float32, bi []int32, bv []float32, oi []int32, ov []float32) int {
	i, j, o := mergeHeads(ai, av, bi, bv, oi, ov)
	// One side is spent: the other's tail is summed alone.
	o += copy(oi[o:], ai[i:])
	zeroPlus(ov[o-(len(ai)-i):o], av[i:])
	o += copy(oi[o:], bi[j:])
	zeroPlus(ov[o-(len(bi)-j):o], bv[j:])
	return o
}

// mergeHeads is merge2's loop while both sides have entries left; it
// returns how far it got in a, in b and in the output.
func mergeHeads(ai []int32, av []float32, bi []int32, bv []float32, oi []int32, ov []float32) (i, j, o int) {
	av, bv, ov = av[:len(ai)], bv[:len(bi)], ov[:len(oi)]
	for i < len(ai) && j < len(bi) {
		x, y := ai[i], bi[j]
		// Indices are non-negative, so the differences cannot overflow:
		// ta is all ones when a's head is in the output, tb when b's is.
		ta, tb := uint32(^((y - x) >> 31)), uint32(^((x - y) >> 31))
		var s float32
		s += math.Float32frombits(math.Float32bits(av[i]) & ta)
		s += math.Float32frombits(math.Float32bits(bv[j]) & tb)
		oi[o] = min(x, y)
		ov[o] = s
		i += int(ta & 1)
		j += int(tb & 1)
		o++
	}
	return i, j, o
}
