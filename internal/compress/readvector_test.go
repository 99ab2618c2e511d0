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
	if binary.LittleEndian.Uint64(rest[off+24:]) != 0 || binary.LittleEndian.Uint32(rest[off+32:]) != 0 {
		return nil, fmt.Errorf("compress: quantized payload")
	}
	for _, v := range []uint64{n, nidx, nvals} {
		if v > maxWireElems {
			return nil, fmt.Errorf("compress: implausible element count %d", v)
		}
	}
	c := &Compressed{Codec: string(rest[:nameLen]), N: int(n)}
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
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded gradient invalid: %w", err)
	}
	return c, nil
}

// eachVectorPath calls fn on this host's vector path and then on the
// big-endian one: hostLE cleared, so every word read is converted in place
// and every write goes through the staging buffer. On a little-endian host
// those conversions rewrite each word unchanged, so both paths must give
// the same bytes and the same values. The host's path is restored after.
func eachVectorPath(fn func(path string)) {
	defer func(le bool) { hostLE = le }(hostLE)
	for _, p := range []struct {
		name string
		le   bool
	}{{"host", hostLE}, {"big-endian", false}} {
		hostLE = p.le
		fn(p.name)
	}
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
func checkReadVector[T int32 | float32](t *testing.T, path string, bits func(T) uint32) {
	t.Helper()
	for _, n := range boundaryLengths(4, true) {
		stream := append(randomBytes(uint64(n)+1, 4*n), "tail"...)
		ref, err := oracleReadChunked(bytes.NewReader(stream), uint64(4*n))
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(stream)
		got, err := ReadVector[T](r, uint64(n))
		if err != nil || got == nil || len(got) != n {
			t.Fatalf("%s path: %T length %d: %d elements, %v", path, got, n, len(got), err)
		}
		for i, x := range got {
			if want := binary.LittleEndian.Uint32(ref[4*i:]); bits(x) != want {
				t.Fatalf("%s path: %T length %d: element %d is %#x, the two-copy decoder's %#x", path, got, n, i, bits(x), want)
			}
		}
		if r.Len() != len("tail") {
			t.Fatalf("%s path: %T length %d: %d bytes left on the stream, want %d", path, got, n, r.Len(), len("tail"))
		}
	}
}

// (a) ReadVector returns, bit for bit, what the two-copy decoder returned, for
// each element type, at the slice and threshold boundaries, on both vector
// paths, and reads exactly the vector's bytes.
func TestReadVectorMatchesTwoCopyOracle(t *testing.T) {
	eachVectorPath(func(path string) {
		checkReadVector(t, path, math.Float32bits)
		checkReadVector(t, path, func(x int32) uint32 { return uint32(x) })
	})
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
	default: // dense
		return &Compressed{Codec: "identity", N: length, Vals: vals}
	}
}

// oracleEncode is the encoder WriteVector replaced, kept as the reference:
// every element converted into a byte buffer of its own.
func oracleEncode(c *Compressed) []byte {
	out := binary.LittleEndian.AppendUint32(nil, wireMagic)
	out = binary.LittleEndian.AppendUint16(out, wireVersion)
	out = append(append(out, byte(len(c.Codec))), c.Codec...)
	for _, v := range []int{c.N, len(c.Idx), len(c.Vals), 0} { // the last is nq
		out = binary.LittleEndian.AppendUint64(out, uint64(v))
	}
	out = binary.LittleEndian.AppendUint32(out, 0) // scale
	for _, x := range c.Idx {
		out = binary.LittleEndian.AppendUint32(out, uint32(x))
	}
	for _, x := range c.Vals {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(x))
	}
	return out
}

// (a, continued) Whole records: sparse and dense payloads encode,
// on both vector paths, to the reference encoder's
// bytes, and decode to what the two-copy decoder made of them (past the
// threshold for the dense family only: the vectors themselves are covered
// above).
func TestDecodeMatchesTwoCopyOracle(t *testing.T) {
	for _, family := range []string{"sparse", "dense"} {
		for _, length := range boundaryLengths(4, family == "dense") {
			fixture := wireFixture(family, length)
			rec := oracleEncode(fixture)
			want, err := oracleDecode(bytes.NewReader(rec))
			if err != nil {
				t.Fatalf("%s length %d: oracle: %v", family, length, err)
			}
			eachVectorPath(func(path string) {
				var enc bytes.Buffer
				if err := fixture.Encode(&enc); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(enc.Bytes(), rec) {
					t.Fatalf("%s path: %s length %d: record differs from the reference encoder's", path, family, length)
				}
				got, err := Decode(bytes.NewReader(rec))
				if err != nil {
					t.Fatalf("%s path: %s length %d: %v", path, family, length, err)
				}
				if got.Codec != want.Codec || got.N != want.N || (got.Idx == nil) != (want.Idx == nil) ||
					!slices.Equal(got.Idx, want.Idx) || !slices.Equal(got.Vals, want.Vals) {
					t.Fatalf("%s path: %s length %d: decoded record differs from the two-copy decoder's", path, family, length)
				}
			})
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
// constant (wholeBytes of result; there is no scratch) plus, over all its
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
		{"maxWireElems over 100 bytes", maxWireElems, short, wholeBytes + slack},
		{"just above the whole-allocation threshold over 100 bytes", wholeBytes/4 + 1, short, wholeBytes + slack},
		{"maxWireElems over two thresholds of stream", maxWireElems, long, wholeBytes + 4*uint64(len(long)) + slack},
	} {
		var err error
		got := allocatedBy(func() { _, err = ReadVector[float32](bytes.NewReader(c.stream), c.claim) })
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: error %v, want io.ErrUnexpectedEOF", c.what, err)
		}
		if got > c.bound {
			t.Fatalf("%s: allocated %d bytes, bound %d", c.what, got, c.bound)
		}
	}
	// Through the record decoder, each of the three length fields after the
	// dense length: a claimed index or value count fails at the end of the
	// stream, a quantized count before any payload is read.
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
		if eof := errors.Is(err, io.ErrUnexpectedEOF); err == nil || eof != (field < 2) {
			t.Fatalf("length field %d: error %v", field, err)
		}
		if bound := uint64(wholeBytes + slack); got > bound {
			t.Fatalf("length field %d: allocated %d bytes, bound %d", field, got, bound)
		}
	}
}
