package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"lowdiff/internal/tensor"
)

// FuzzTopKSelect holds the sampled-threshold select to the strength
// ranking on arbitrary vectors. The first two bytes pick k; every
// following four bytes are one float32's bits. The select runs on that
// vector, where every entry is a candidate, and on its tiling to at least
// sampleMin entries, which takes the sampled path: tile i is scaled by a
// factor in {½, 1, 1½, 2} that byte i of the input picks, so ties cross
// tiles. NaN is out of
// contract, so an input holding one is skipped.
func FuzzTopKSelect(f *testing.F) {
	f32 := func(k uint16, vals ...float32) []byte {
		b := binary.LittleEndian.AppendUint16(nil, k)
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	inf := float32(math.Inf(1))
	f.Add(f32(2, 1, 1, 1, 1, 1))
	f.Add(f32(1, 0, float32(math.Copysign(0, -1)), 1e-45, -1e-45, inf, -inf))
	f.Add(f32(3, 1, math.Nextafter32(1, 0), -1, -math.Nextafter32(1, 0), 2, 0.5))
	f.Add(f32(7, 0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8, 0.9))
	f.Add(f32(180, 0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8, 0.9))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		g := tensor.New((len(data) - 2) / 4)
		for i := range g {
			g[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[2+4*i:]))
			if math.IsNaN(float64(g[i])) {
				return
			}
		}
		pick := int(binary.LittleEndian.Uint16(data))
		checkTopKOracle(t, "fuzz", g, 1+pick%len(g))
		tiles := (sampleMin + len(g) - 1) / len(g)
		tiled := tensor.New(tiles * len(g))
		for i := 0; i < tiles; i++ {
			scale := float32(1+data[i%len(data)]%4) / 2
			for j, v := range g {
				tiled[i*len(g)+j] = v * scale
			}
		}
		checkTopKOracle(t, "fuzz-tiled", tiled, 1+pick%len(tiled))
	})
}

// FuzzDecode hardens the wire decoder: arbitrary bytes must never panic or
// over-allocate, a record carrying a quantized count or scale is rejected,
// and every record that decodes re-encodes to exactly the bytes it was
// read from.
func FuzzDecode(f *testing.F) {
	// Seed with valid encodings of each codec, and with quantized records,
	// which must be rejected: an int8 one as the retired codec wrote it
	// (seed 1), a zero-scale one, and a sparse one with only its scale set.
	g := tensor.New(64)
	tensor.NewRNG(1).FillUniform(g, -1, 1)
	encode := func(comp Compressor) []byte {
		c, err := comp.Compress(g)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	tk, _ := NewTopK(0.1)
	sparse := encode(tk)
	f.Add(sparse)
	f.Add(quantizedRecord(0x3c000000, 64))
	f.Add(encode(Identity{}))
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
	f.Add(quantizedRecord(0, 8))
	scaled := append([]byte{}, sparse...)
	binary.LittleEndian.PutUint32(scaled[7+len("topk")+32:], 0x3f800000)
	f.Add(scaled)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		c, err := Decode(r)
		if len(data) > 6 && err == nil {
			nq := 7 + int(data[6]) + 24 // scale follows it
			if binary.LittleEndian.Uint64(data[nq:]) != 0 || binary.LittleEndian.Uint32(data[nq+8:]) != 0 {
				t.Fatal("decoder accepted a quantized count or scale")
			}
		}
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
		if read := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), read) {
			t.Fatalf("re-encoded %d bytes differ from the %d decoded", buf.Len(), len(read))
		}
	})
}

// quantizedRecord is an LDCG record of n dense int8 bytes at the given
// scale bits, laid out as the retired int8 codec encoded it.
func quantizedRecord(scale uint32, n int) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, wireMagic)
	rec = binary.LittleEndian.AppendUint16(rec, wireVersion)
	rec = append(append(rec, byte(len("int8"))), "int8"...)
	for _, v := range []uint64{uint64(n), 0, 0, uint64(n)} { // n, nidx, nvals, nq
		rec = binary.LittleEndian.AppendUint64(rec, v)
	}
	rec = binary.LittleEndian.AppendUint32(rec, scale)
	return append(rec, randomBytes(uint64(n), n)...)
}
