package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"lowdiff/internal/parallel"
	"lowdiff/internal/tensor"
)

// oracleReadChunked and oracleDecode are the decoder ReadVector replaced,
// kept as the reference: every payload staged whole through a regrown 4 MiB
// buffer, then converted into a second slice.
func oracleReadChunked(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 4 << 20
	out := make([]byte, 0, min(n, chunk))
	for uint64(len(out)) < n {
		step := min(n-uint64(len(out)), chunk)
		start := len(out)
		out = append(out, make([]byte, step)...)
		if _, err := io.ReadFull(r, out[start:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func oracleDecode(r io.Reader) (*Compressed, error) {
	var fixed [7]byte
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
	rest := make([]byte, nameLen+4*8+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return nil, fmt.Errorf("compress: decode header: %w", err)
	}
	off := nameLen
	n := binary.LittleEndian.Uint64(rest[off:])
	nidx := binary.LittleEndian.Uint64(rest[off+8:])
	nvals := binary.LittleEndian.Uint64(rest[off+16:])
	nq := binary.LittleEndian.Uint64(rest[off+24:])
	for _, v := range []uint64{n, nidx, nvals, nq} {
		if v > maxWireElems {
			return nil, fmt.Errorf("compress: implausible element count %d", v)
		}
	}
	c := &Compressed{Codec: string(rest[:nameLen]), N: int(n), Scale: math.Float32frombits(binary.LittleEndian.Uint32(rest[off+32:]))}
	if nidx > 0 {
		buf, err := oracleReadChunked(r, 4*nidx)
		if err != nil {
			return nil, fmt.Errorf("compress: decode idx: %w", err)
		}
		c.Idx = make([]int32, nidx)
		for i := range c.Idx {
			c.Idx[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	if nvals > 0 {
		buf, err := oracleReadChunked(r, 4*nvals)
		if err != nil {
			return nil, fmt.Errorf("compress: decode vals: %w", err)
		}
		c.Vals = make([]float32, nvals)
		for i := range c.Vals {
			c.Vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
	}
	if nq > 0 {
		q, err := oracleReadChunked(r, nq)
		if err != nil {
			return nil, fmt.Errorf("compress: decode quantized payload: %w", err)
		}
		c.Q = q
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded gradient invalid: %w", err)
	}
	return c, nil
}

// boundaryLengths are the vector lengths around one read slice of elements of
// the given size; with past, also one beyond the whole-allocation threshold,
// where the result has to double once while the stream is read.
func boundaryLengths(size int, past bool) []int {
	slice := readSlice / size
	lengths := []int{0, 1, slice - 1, slice, slice + 1, 3*slice + 17}
	if past {
		lengths = append(lengths, wholeBytes/size+slice+5)
	}
	return lengths
}

// testPools are the worker counts every decode is compared at; nil is the
// serial inline path.
func testPools(t *testing.T) []*parallel.Pool {
	t.Helper()
	pools := []*parallel.Pool{nil}
	for _, workers := range []int{1, 2, 7} {
		p, err := parallel.New(workers)
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, p)
	}
	return pools
}

// randomBytes fills n bytes with every bit pattern a payload can hold,
// NaNs and negative indices included: the decoder must pass them through.
func randomBytes(seed uint64, n int) []byte {
	r := tensor.NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// checkReadVector compares ReadVector[T] with the two-copy decoder by bit
// pattern (bits of an element; NaNs do not compare equal as floats).
func checkReadVector[T int32 | float32 | byte](t *testing.T, size int, bits func(T) uint32) {
	t.Helper()
	for _, n := range boundaryLengths(size, true) {
		stream := append(randomBytes(uint64(n)+1, n*size), "tail"...)
		ref, err := oracleReadChunked(bytes.NewReader(stream), uint64(n*size))
		if err != nil {
			t.Fatal(err)
		}
		for _, pool := range testPools(t) {
			r := bytes.NewReader(stream)
			got, err := ReadVector[T](r, uint64(n), pool)
			if err != nil || got == nil || len(got) != n {
				t.Fatalf("%T length %d at %d workers: %d elements, %v", got, n, pool.Workers(), len(got), err)
			}
			for i, x := range got {
				want := uint32(ref[i])
				if size == 4 {
					want = binary.LittleEndian.Uint32(ref[4*i:])
				}
				if bits(x) != want {
					t.Fatalf("%T length %d at %d workers: element %d is %#x, the two-copy decoder's %#x", got, n, pool.Workers(), i, bits(x), want)
				}
			}
			if r.Len() != len("tail") {
				t.Fatalf("%T length %d: %d bytes left on the stream, want %d", got, n, r.Len(), len("tail"))
			}
		}
	}
}

// (a) ReadVector returns, bit for bit, what the two-copy decoder returned, for
// each element type, at the slice and threshold boundaries, at every worker
// count, and reads exactly the vector's bytes.
func TestReadVectorMatchesTwoCopyOracle(t *testing.T) {
	checkReadVector(t, 4, math.Float32bits)
	checkReadVector(t, 4, func(x int32) uint32 { return uint32(x) })
	checkReadVector(t, 1, func(x byte) uint32 { return uint32(x) })
}

// wireFixture builds a valid record of the family whose payload vectors have
// the given length.
func wireFixture(family string, length int) *Compressed {
	r := tensor.NewRNG(uint64(length) + 7)
	vals := tensor.New(length)
	r.FillUniform(vals, -1, 1)
	switch family {
	case "sparse":
		if length == 0 {
			return &Compressed{Codec: "topk", N: 0}
		}
		idx := make([]int32, length)
		for i := range idx {
			idx[i] = int32(2*i + r.Intn(2))
		}
		return &Compressed{Codec: "topk", N: 2 * length, Idx: idx, Vals: vals}
	case "dense":
		return &Compressed{Codec: "identity", N: length, Vals: vals}
	default: // quantized
		return &Compressed{Codec: "int8", N: length, Scale: 0.5, Q: randomBytes(uint64(length), length)}
	}
}

// (a, continued) Whole records: sparse, dense and quantized payloads decode
// to what the two-copy decoder made of the same bytes (past the threshold
// for the dense family only: the vectors themselves are covered above).
func TestDecodeMatchesTwoCopyOracle(t *testing.T) {
	for _, family := range []string{"sparse", "dense", "quantized"} {
		size := 4
		if family == "quantized" {
			size = 1
		}
		for _, length := range boundaryLengths(size, family == "dense") {
			var rec bytes.Buffer
			if err := wireFixture(family, length).Encode(&rec); err != nil {
				t.Fatal(err)
			}
			want, err := oracleDecode(bytes.NewReader(rec.Bytes()))
			if err != nil {
				t.Fatalf("%s length %d: oracle: %v", family, length, err)
			}
			for _, pool := range testPools(t) {
				got, err := DecodeWith(bytes.NewReader(rec.Bytes()), pool)
				if err != nil {
					t.Fatalf("%s length %d at %d workers: %v", family, length, pool.Workers(), err)
				}
				if got.Codec != want.Codec || got.N != want.N || got.Scale != want.Scale || (got.Idx == nil) != (want.Idx == nil) ||
					!slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Vals, want.Vals) || !bytes.Equal(got.Q, want.Q) {
					t.Fatalf("%s length %d at %d workers: decoded record differs from the two-copy decoder's", family, length, pool.Workers())
				}
			}
		}
	}
}

// allocatedBy returns how many bytes fn allocated, live or not.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// (b) A corrupt length field fails when the stream ends, having allocated a
// constant (wholeBytes of result and readSlice of scratch) plus, over all its
// doublings together, at most four times what the stream really held — never
// what the field claims.
func TestCorruptLengthAllocationBounded(t *testing.T) {
	const slack = 64 << 10
	short := randomBytes(1, 100)
	long := randomBytes(2, 2*wholeBytes+100)
	for _, c := range []struct {
		what   string
		claim  uint64
		stream []byte
		bound  uint64
	}{
		{"maxWireElems over 100 bytes", maxWireElems, short, wholeBytes + readSlice + slack},
		{"just above the whole-allocation threshold over 100 bytes", wholeBytes/4 + 1, short, wholeBytes + readSlice + slack},
		{"maxWireElems over two thresholds of stream", maxWireElems, long, wholeBytes + readSlice + 4*uint64(len(long)) + slack},
	} {
		var err error
		got := allocatedBy(func() { _, err = ReadVector[float32](bytes.NewReader(c.stream), c.claim, nil) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: error %v, want io.ErrUnexpectedEOF", c.what, err)
		}
		if got > c.bound {
			t.Fatalf("%s: allocated %d bytes, bound %d", c.what, got, c.bound)
		}
	}
	// Through the record decoder, each of the three payload length fields.
	var rec bytes.Buffer
	if err := wireFixture("sparse", 8).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	lengths := 7 + len("topk") + 8 // nidx, nvals, nq follow the dense length
	for field := 0; field < 3; field++ {
		bad := append(append([]byte{}, rec.Bytes()...), "end"...) // the payloads never end on a slice boundary
		binary.LittleEndian.PutUint64(bad[lengths+8*field:], maxWireElems)
		var err error
		got := allocatedBy(func() { _, err = Decode(bytes.NewReader(bad)) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("length field %d: error %v, want io.ErrUnexpectedEOF", field, err)
		}
		if bound := uint64(wholeBytes + readSlice + slack); got > bound {
			t.Fatalf("length field %d: allocated %d bytes, bound %d", field, got, bound)
		}
	}
}
