package compress

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lowdiff/internal/parallel"
)

// Wire format (little endian):
//
//	magic   uint32  'LDCG'
//	version uint16
//	codec   uint8 length + bytes
//	n       uint64  dense length
//	nidx    uint64  index count   (0 when absent)
//	nvals   uint64  value count   (0 when absent)
//	nq      uint64  quantized byte count (0 when absent)
//	scale   float32
//	payloads in the order idx, vals, q
//
// Encode and Decode read/write exactly one record and never over-read, so
// records can be streamed back to back on a single reader.
const (
	wireMagic   = 0x4c444347 // "LDCG"
	wireVersion = 1
)

// maxWireElems bounds decoded element counts; a compressed gradient larger
// than this (8G elements) is certainly corrupt.
const maxWireElems = 1 << 33

// ReadVector's two constants bound what a corrupt length field can make a
// decode hold before the stream runs out: readSlice of pooled scratch and
// wholeBytes of result, plus at most three times what the stream really
// delivered (a result and its doubled successor, while one is copied).
const (
	// readSlice is how much is read, and folded into the caller's CRC, at a
	// time: it is converted while still in cache.
	readSlice = 1 << 20
	// wholeBytes is the largest result allocated at once on the length
	// field's word; a longer one starts there and doubles as bytes arrive.
	wholeBytes = 8 << 20
)

// ReadVector reads n little-endian elements from r — the one slice decoder
// under every vector of a differential and of a full checkpoint: a bounded
// slice of the stream at a time through pooled scratch, converted on pool's
// chunk grid straight into the result, which is the only thing of its size
// the call allocates. The result is fresh (never pooled) and identical at any
// worker count. A stream shorter than n elements fails with the reader's
// error (io.ErrUnexpectedEOF from a reader that just ends).
func ReadVector[T int32 | float32 | byte](r io.Reader, n uint64, pool *parallel.Pool) ([]T, error) {
	size, stage := uint64(4), uint64(readSlice)
	if _, raw := any([]T(nil)).([]byte); raw {
		size, stage = 1, 0 // bytes need no conversion: they are read in place
	}
	scratch := getBytes(int(min(n*size, stage)))
	defer scratch.release()
	out := make([]T, min(n, wholeBytes/size))
	for have := uint64(0); have < n; {
		k := min(n-have, readSlice/size)
		if have+k > uint64(len(out)) {
			// Doubling past wholeBytes keeps what a corrupt length allocates
			// proportional to the actual stream.
			grown := make([]T, min(n, 2*have))
			copy(grown, out)
			out = grown
		}
		var err error
		switch dst := any(out[have : have+k]).(type) {
		case []byte:
			_, err = io.ReadFull(r, dst)
		case []int32:
			if _, err = io.ReadFull(r, scratch.b[:4*k]); err == nil {
				i32sFromLE(dst, scratch.b, pool)
			}
		case []float32:
			if _, err = io.ReadFull(r, scratch.b[:4*k]); err == nil {
				f32sFromLE(dst, scratch.b, pool)
			}
		}
		if err != nil {
			return nil, err
		}
		have += k
	}
	return out, nil
}

// i32sFromLE and f32sFromLE convert the little-endian words at the head of
// src into dst, sharded over pool. They must not be inlined: the copy of
// their loop that lands in ReadVector's generic instance is compiled with
// binary.LittleEndian.Uint32 and math.Float32frombits as calls, which
// doubles the time of a decode.
//
//go:noinline
func i32sFromLE(dst []int32, src []byte, pool *parallel.Pool) {
	//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
	pool.ForEach(len(dst), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	})
}

//go:noinline
func f32sFromLE(dst []float32, src []byte, pool *parallel.Pool) {
	//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
	pool.ForEach(len(dst), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
	})
}

// EncodedBytes returns the exact wire size of the record.
func (c *Compressed) EncodedBytes() int64 {
	return int64(4+2+1+len(c.Codec)+4*8+4) + int64(len(c.Idx))*4 + int64(len(c.Vals))*4 + int64(len(c.Q))
}

// Encode writes the compressed gradient to w in the LDCG wire format.
func (c *Compressed) Encode(w io.Writer) error {
	return c.EncodeWith(w, nil)
}

// EncodeWith is Encode with the element-to-byte conversion loops sharded
// over pool and staged through pooled scratch buffers instead of per-call
// allocations. The emitted bytes are identical to Encode's at any worker
// count. w must not retain the slice passed to Write beyond the call (the
// usual io.Writer contract) — the staging buffer is reused.
func (c *Compressed) EncodeWith(w io.Writer, pool *parallel.Pool) error {
	if len(c.Codec) > 255 {
		return fmt.Errorf("compress: codec name too long: %d", len(c.Codec))
	}
	//lint:allow hotalloc fixed 64-byte header staging per record; never grows and is dwarfed by the payload writes
	hdr := make([]byte, 0, 64)
	hdr = binary.LittleEndian.AppendUint32(hdr, wireMagic)
	hdr = binary.LittleEndian.AppendUint16(hdr, wireVersion)
	hdr = append(hdr, byte(len(c.Codec)))
	hdr = append(hdr, c.Codec...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(c.N))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(c.Idx)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(c.Vals)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(c.Q)))
	hdr = binary.LittleEndian.AppendUint32(hdr, math.Float32bits(c.Scale))
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("compress: encode header: %w", err)
	}
	if len(c.Idx) > 0 {
		scratch := getBytes(4 * len(c.Idx))
		buf := scratch.b
		//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
		pool.ForEach(len(c.Idx), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				binary.LittleEndian.PutUint32(buf[4*i:], uint32(c.Idx[i]))
			}
		})
		_, err := w.Write(buf)
		scratch.release()
		if err != nil {
			return fmt.Errorf("compress: encode idx: %w", err)
		}
	}
	if len(c.Vals) > 0 {
		scratch := getBytes(4 * len(c.Vals))
		buf := scratch.b
		//lint:allow hotalloc one closure per dispatch, not per element: the pool's workers capture it
		pool.ForEach(len(c.Vals), func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(c.Vals[i]))
			}
		})
		_, err := w.Write(buf)
		scratch.release()
		if err != nil {
			return fmt.Errorf("compress: encode vals: %w", err)
		}
	}
	if len(c.Q) > 0 {
		if _, err := w.Write(c.Q); err != nil {
			return fmt.Errorf("compress: encode quantized payload: %w", err)
		}
	}
	return nil
}

// Decode reads exactly one compressed gradient in the LDCG wire format.
func Decode(r io.Reader) (*Compressed, error) {
	return DecodeWith(r, nil)
}

// DecodeWith is Decode with the byte-to-element conversion loops sharded
// over pool; the decoded gradient is identical at any worker count. The
// result's slices are freshly allocated (never pooled): a decoded gradient
// may outlive the call arbitrarily.
func DecodeWith(r io.Reader, pool *parallel.Pool) (*Compressed, error) {
	//lint:allow hotalloc 7 header bytes per decoded gradient, not per element; they escape through io.ReadFull's reader
	var fixed [7]byte // magic + version + name length
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("compress: decode header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(fixed[0:4]); magic != wireMagic {
		return nil, fmt.Errorf("compress: bad magic %#x", magic)
	}
	if version := binary.LittleEndian.Uint16(fixed[4:6]); version != wireVersion {
		return nil, fmt.Errorf("compress: unsupported wire version %d", version)
	}
	nameLen := int(fixed[6])
	scratch := getBytes(nameLen + 4*8 + 4)
	defer scratch.release()
	rest := scratch.b
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("compress: decode header: %w", err)
	}
	name := string(rest[:nameLen])
	off := nameLen
	n := binary.LittleEndian.Uint64(rest[off:])
	nidx := binary.LittleEndian.Uint64(rest[off+8:])
	nvals := binary.LittleEndian.Uint64(rest[off+16:])
	nq := binary.LittleEndian.Uint64(rest[off+24:])
	scale := math.Float32frombits(binary.LittleEndian.Uint32(rest[off+32:]))
	for _, v := range []uint64{n, nidx, nvals, nq} {
		if v > maxWireElems {
			return nil, fmt.Errorf("compress: implausible element count %d", v)
		}
	}
	c := &Compressed{Codec: name, N: int(n), Scale: scale}
	var err error
	if nidx > 0 {
		if c.Idx, err = ReadVector[int32](r, nidx, pool); err != nil {
			return nil, fmt.Errorf("compress: decode idx: %w", err)
		}
	}
	if nvals > 0 {
		if c.Vals, err = ReadVector[float32](r, nvals, pool); err != nil {
			return nil, fmt.Errorf("compress: decode vals: %w", err)
		}
	}
	if nq > 0 {
		if c.Q, err = ReadVector[byte](r, nq, pool); err != nil {
			return nil, fmt.Errorf("compress: decode quantized payload: %w", err)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded gradient invalid: %w", err)
	}
	return c, nil
}
