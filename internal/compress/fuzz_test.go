package compress

import (
	"bytes"
	"encoding/binary"
	"testing"

	"lowdiff/internal/tensor"
)

// FuzzDecode hardens the wire decoder: arbitrary bytes must never panic or
// over-allocate, and any record that decodes must re-encode to an
// equivalent record.
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings of each codec.
	g := tensor.New(64)
	tensor.NewRNG(1).FillUniform(g, -1, 1)
	tk, _ := NewTopK(0.1)
	for _, comp := range []Compressor{tk, Int8{}, Identity{}} {
		c, err := comp.Compress(g)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0x47, 0x43, 0x44, 0x4c})
	// The slice decoder's boundaries: a valid record one element past a read
	// slice, and short streams whose value-count field claims lengths around
	// the slice, around the whole-allocation threshold, and the maximum.
	var past bytes.Buffer
	if err := wireFixture("dense", readSlice/4+1).Encode(&past); err != nil {
		f.Fatal(err)
	}
	f.Add(past.Bytes())
	nvals := 7 + len("identity") + 16
	for _, claim := range []uint64{readSlice/4 - 1, readSlice / 4, readSlice/4 + 1, wholeBytes / 4, wholeBytes/4 + 1, maxWireElems} {
		short := append([]byte{}, past.Bytes()[:nvals+200]...)
		binary.LittleEndian.PutUint64(short[nvals-16:], claim) // dense length, so the record could be valid
		binary.LittleEndian.PutUint64(short[nvals:], claim)
		f.Add(short)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejecting garbage is correct
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("decoder returned invalid record: %v", err)
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		c2, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if c2.Codec != c.Codec || c2.N != c.N || len(c2.Idx) != len(c.Idx) ||
			len(c2.Vals) != len(c.Vals) || len(c2.Q) != len(c.Q) {
			t.Fatal("round trip changed the record shape")
		}
	})
}
