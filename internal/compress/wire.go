package compress

import (
	"encoding/binary"
	"fmt"
	"io"
	"unsafe"
)

// Wire format (little endian):
//
//	magic   uint32  'LDCG'
//	version uint16
//	codec   uint8 length + bytes
//	n       uint64  dense length
//	nidx    uint64  index count   (0 when absent)
//	nvals   uint64  value count   (0 when absent)
//	nq      uint64  always 0
//	scale   float32 always 0
//	payloads in the order idx, vals
//
// nq and scale are the fields of a quantized payload, which no codec writes
// any more: Encode writes them as zero, so the record bytes are those of
// every earlier release, and Decode rejects a record where either is not
// zero. Encode and Decode read/write exactly one record and never
// over-read, so records can be streamed back to back on a single reader.
const (
	wireMagic   = 0x4c444347 // "LDCG"
	wireVersion = 1
)

// maxWireElems bounds decoded element counts; a compressed gradient larger
// than this (8G elements) is certainly corrupt.
const maxWireElems = 1 << 33

// hostLE reports whether this host stores an int32 or float32 in little-endian
// byte order, so that a vector's memory already is its wire bytes. It is a
// variable, not a constant, so that the tests run the big-endian path too:
// with it cleared on a little-endian host, that path's conversions rewrite
// every word unchanged, and must give the same records and values.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// ReadVector's two constants bound what a corrupt length field can make a
// decode hold before the stream runs out: wholeBytes of result, plus at most
// three times what the stream really delivered (a result and its doubled
// successor, while one is copied).
const (
	// readSlice is how much is read, and folded into the caller's CRC, at a
	// time: the CRC reads each slice while it is still in cache. It is also
	// the staging buffer of a big-endian host's writes.
	readSlice = 1 << 20
	// wholeBytes is the largest result allocated at once on the length
	// field's word; a longer one starts there and doubles as bytes arrive.
	wholeBytes = 8 << 20
)

// wireBytes is v's memory as bytes: on a little-endian host, exactly its
// wire encoding.
func wireBytes[T int32 | float32](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(v[0])))
}

// ReadKeepsWireBytes reports whether ReadVector leaves the bytes it reads
// as they arrived, so that a reader under it may checksum them later: true
// on a little-endian host, where they are the result. A big-endian host
// swaps each word in place once its slice is read.
func ReadKeepsWireBytes() bool { return hostLE }

// ReadVector reads n little-endian elements from r — the one slice decoder
// under every vector of a differential and of a full checkpoint. Each slice
// of the stream is read straight into the result's memory; a big-endian host
// then swaps its words into host order in place. The result is the only
// thing the call allocates, fresh (never pooled). A stream shorter than n
// elements fails with the reader's error (io.ErrUnexpectedEOF from a reader
// that just ends).
func ReadVector[T int32 | float32](r io.Reader, n uint64) ([]T, error) {
	var zero T
	size := uint64(unsafe.Sizeof(zero))
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
		b := wireBytes(out[have : have+k])
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		if !hostLE {
			for i := 0; i < len(b); i += 4 {
				binary.NativeEndian.PutUint32(b[i:], binary.LittleEndian.Uint32(b[i:]))
			}
		}
		have += k
	}
	return out, nil
}

// WriteVector writes v to w as little-endian elements — the one vector
// encoder of both record formats; an empty v writes nothing. A little-endian
// host hands w the vector's own memory in one Write, so w must neither
// modify nor retain it (the io.Writer contract). A big-endian host converts
// at most readSlice bytes at a time into pooled scratch.
func WriteVector[T int32 | float32](w io.Writer, v []T) error {
	b := wireBytes(v)
	if len(b) == 0 {
		return nil
	}
	if hostLE {
		_, err := w.Write(b)
		return err
	}
	scratch := getBytes(min(len(b), readSlice))
	defer scratch.release()
	for off := 0; off < len(b); off += len(scratch.b) {
		src := b[off:min(off+len(scratch.b), len(b))]
		dst := scratch.b[:len(src)]
		for i := 0; i < len(src); i += 4 {
			binary.LittleEndian.PutUint32(dst[i:], binary.NativeEndian.Uint32(src[i:]))
		}
		if _, err := w.Write(dst); err != nil {
			return err
		}
	}
	return nil
}

// EncodedBytes returns the exact wire size of the record.
func (c *Compressed) EncodedBytes() int64 {
	return int64(4+2+1+len(c.Codec)+4*8+4) + int64(len(c.Idx))*4 + int64(len(c.Vals))*4
}

// FieldWriter is the one little-endian field encoder of both record
// formats. It stages a record's small fields in one buffer and sends them in
// one Write just before the next vector, or at Flush; each vector goes to w
// from its own memory (WriteVector), so w must neither modify nor retain the
// slice passed to Write. The first error sticks: later calls write nothing,
// and Flush returns it.
type FieldWriter struct {
	w   io.Writer
	buf []byte // staged fields, sent before the next vector
	err error
	// stage holds the longest field run either record kind has (a full's
	// optimizer header, about 90 bytes), so staging allocates nothing.
	stage [128]byte
}

// NewFieldWriter returns a FieldWriter that sends to w.
func NewFieldWriter(w io.Writer) *FieldWriter {
	e := &FieldWriter{w: w}
	e.buf = e.stage[:0]
	return e
}

// U8, U16, U32 and U64 stage one field.
func (e *FieldWriter) U8(v uint8)   { e.buf = append(e.buf, v) }
func (e *FieldWriter) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *FieldWriter) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *FieldWriter) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// String stages s's bytes; its length is the caller's field.
func (e *FieldWriter) String(s string) { e.buf = append(e.buf, s...) }

// F32s sends the staged fields, then v.
func (e *FieldWriter) F32s(v []float32) { writeFieldVector(e, v) }

// I32s sends the staged fields, then v.
func (e *FieldWriter) I32s(v []int32) { writeFieldVector(e, v) }

// Fail makes err the writer's error unless it already has one.
func (e *FieldWriter) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Flush sends the staged fields and returns the writer's error.
func (e *FieldWriter) Flush() error {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
	return e.err
}

// writeFieldVector is F32s and I32s; an empty v leaves the fields staged.
func writeFieldVector[T int32 | float32](e *FieldWriter, v []T) {
	if len(v) == 0 || e.Flush() != nil {
		return
	}
	e.err = WriteVector(e.w, v)
}

// FieldReader is FieldWriter's decoder. Small fields land in an arena that
// is only ever appended to, and a new arena replaces a full one: a byte once
// read is never overwritten, so a reader under a FieldReader may checksum
// what it delivered after Read returns (checkpoint's CRC helper does). Need
// reads a run of fixed fields in one read. The first error sticks: later
// fields read as zero, and Err returns it.
type FieldReader struct {
	r     io.Reader
	arena []byte // bytes read; arena[next:] are not yet taken
	next  int
	err   error
}

// fieldArena is a new arena's size, enough for a record's small fields.
const fieldArena = 256

// NewFieldReader returns a FieldReader that reads from r.
func NewFieldReader(r io.Reader) *FieldReader { return &FieldReader{r: r} }

// Err returns the first error the reader met.
func (d *FieldReader) Err() error { return d.err }

// Need reads the next n bytes in one read, less any already read; the field
// calls after it take them from memory. They must not pass the record's end
// or its next vector.
func (d *FieldReader) Need(n int) {
	have := len(d.arena) - d.next
	if d.err != nil || have >= n {
		return
	}
	if len(d.arena)+n-have > cap(d.arena) {
		fresh := make([]byte, have, max(fieldArena, n))
		copy(fresh, d.arena[d.next:])
		d.arena, d.next = fresh, 0
	}
	from := len(d.arena)
	d.arena = d.arena[:from+n-have]
	if _, err := io.ReadFull(d.r, d.arena[from:]); err != nil {
		d.err = err
	}
}

// take returns the next n bytes, zeros once the reader has failed.
func (d *FieldReader) take(n int) []byte {
	d.Need(n)
	if d.err != nil {
		return make([]byte, n)
	}
	d.next += n
	return d.arena[d.next-n : d.next]
}

// U8, U16, U32 and U64 read one field.
func (d *FieldReader) U8() uint8   { return d.take(1)[0] }
func (d *FieldReader) U16() uint16 { return binary.LittleEndian.Uint16(d.take(2)) }
func (d *FieldReader) U32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *FieldReader) U64() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }

// String reads n bytes as a string.
func (d *FieldReader) String(n int) string { return string(d.take(n)) }

// F32s reads a vector of n elements (ReadVector).
func (d *FieldReader) F32s(n uint64) []float32 { return readFieldVector[float32](d, n) }

// I32s reads a vector of n elements (ReadVector).
func (d *FieldReader) I32s(n uint64) []int32 { return readFieldVector[int32](d, n) }

func readFieldVector[T int32 | float32](d *FieldReader, n uint64) []T {
	if d.err != nil {
		return nil
	}
	if n > maxWireElems {
		d.err = fmt.Errorf("compress: implausible element count %d", n)
		return nil
	}
	v, err := ReadVector[T](d.r, n)
	d.err = err
	return v
}

// Encode writes the compressed gradient to w in the LDCG wire format. On a
// little-endian host each vector goes to w straight from its own memory, so
// w must neither modify nor retain the slice passed to Write (the io.Writer
// contract).
func (c *Compressed) Encode(w io.Writer) error {
	e := NewFieldWriter(w)
	c.EncodeFields(e)
	if err := e.Flush(); err != nil {
		return fmt.Errorf("compress: encode: %w", err)
	}
	return nil
}

// EncodeFields stages c's header in e and sends its vectors after it, so a
// record that holds c sends its own header and c's in one Write.
func (c *Compressed) EncodeFields(e *FieldWriter) {
	if len(c.Codec) > 255 {
		e.Fail(fmt.Errorf("compress: codec name too long: %d", len(c.Codec)))
		return
	}
	e.U32(wireMagic)
	e.U16(wireVersion)
	e.U8(byte(len(c.Codec)))
	e.String(c.Codec)
	e.U64(uint64(c.N))
	e.U64(uint64(len(c.Idx)))
	e.U64(uint64(len(c.Vals)))
	e.U64(0) // nq
	e.U32(0) // scale
	e.I32s(c.Idx)
	e.F32s(c.Vals)
}

// Decode reads exactly one compressed gradient in the LDCG wire format. The
// result's slices are freshly allocated (never pooled): a decoded gradient
// may outlive the call arbitrarily.
func Decode(r io.Reader) (*Compressed, error) { return DecodeFields(NewFieldReader(r)) }

// DecodeFields is Decode from a record's FieldReader.
func DecodeFields(d *FieldReader) (*Compressed, error) {
	d.Need(7) // magic, version, name length
	magic, version, nameLen := d.U32(), d.U16(), int(d.U8())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("compress: decode header: %w", err)
	}
	if magic != wireMagic {
		return nil, fmt.Errorf("compress: bad magic %#x", magic)
	}
	if version != wireVersion {
		return nil, fmt.Errorf("compress: unsupported wire version %d", version)
	}
	d.Need(nameLen + 4*8 + 4)
	name := d.String(nameLen)
	n, nidx, nvals, nq, scale := d.U64(), d.U64(), d.U64(), d.U64(), d.U32()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("compress: decode header: %w", err)
	}
	if nq != 0 || scale != 0 {
		return nil, fmt.Errorf("compress: quantized payload (count %d, scale bits %#x): no codec writes one", nq, scale)
	}
	for _, v := range []uint64{n, nidx, nvals} {
		if v > maxWireElems {
			return nil, fmt.Errorf("compress: implausible element count %d", v)
		}
	}
	c := &Compressed{Codec: name, N: int(n)}
	if nidx > 0 {
		if c.Idx = d.I32s(nidx); d.Err() != nil {
			return nil, fmt.Errorf("compress: decode idx: %w", d.Err())
		}
	}
	if nvals > 0 {
		if c.Vals = d.F32s(nvals); d.Err() != nil {
			return nil, fmt.Errorf("compress: decode vals: %w", d.Err())
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded gradient invalid: %w", err)
	}
	return c, nil
}
