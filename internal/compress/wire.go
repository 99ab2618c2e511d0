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

// Encode writes the compressed gradient to w in the LDCG wire format. On a
// little-endian host each vector goes to w straight from its own memory, so
// w must neither modify nor retain the slice passed to Write (the io.Writer
// contract).
func (c *Compressed) Encode(w io.Writer) error {
	if len(c.Codec) > 255 {
		return fmt.Errorf("compress: codec name too long: %d", len(c.Codec))
	}
	// One 64-byte header staging per record; the payloads go out from their own memory.
	hdr := make([]byte, 0, 64)
	hdr = binary.LittleEndian.AppendUint32(hdr, wireMagic)
	hdr = binary.LittleEndian.AppendUint16(hdr, wireVersion)
	hdr = append(hdr, byte(len(c.Codec)))
	hdr = append(hdr, c.Codec...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(c.N))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(c.Idx)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(c.Vals)))
	hdr = binary.LittleEndian.AppendUint64(hdr, 0) // nq
	hdr = binary.LittleEndian.AppendUint32(hdr, 0) // scale
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("compress: encode header: %w", err)
	}
	if err := WriteVector(w, c.Idx); err != nil {
		return fmt.Errorf("compress: encode idx: %w", err)
	}
	if err := WriteVector(w, c.Vals); err != nil {
		return fmt.Errorf("compress: encode vals: %w", err)
	}
	return nil
}

// Decode reads exactly one compressed gradient in the LDCG wire format. The
// result's slices are freshly allocated (never pooled): a decoded gradient
// may outlive the call arbitrarily.
func Decode(r io.Reader) (*Compressed, error) {
	// 7 bytes per decoded record: they escape through io.ReadFull's reader.
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
	scale := binary.LittleEndian.Uint32(rest[off+32:])
	if nq != 0 || scale != 0 {
		return nil, fmt.Errorf("compress: quantized payload (count %d, scale bits %#x): no codec writes one", nq, scale)
	}
	for _, v := range []uint64{n, nidx, nvals} {
		if v > maxWireElems {
			return nil, fmt.Errorf("compress: implausible element count %d", v)
		}
	}
	c := &Compressed{Codec: name, N: int(n)}
	var err error
	if nidx > 0 {
		if c.Idx, err = ReadVector[int32](r, nidx); err != nil {
			return nil, fmt.Errorf("compress: decode idx: %w", err)
		}
	}
	if nvals > 0 {
		if c.Vals, err = ReadVector[float32](r, nvals); err != nil {
			return nil, fmt.Errorf("compress: decode vals: %w", err)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("compress: decoded gradient invalid: %w", err)
	}
	return c, nil
}
