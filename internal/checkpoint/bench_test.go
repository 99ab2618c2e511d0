package checkpoint

import (
	"bytes"
	"io"
	"testing"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/compress"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// benchParams is the model the end-to-end benchmark trains: 1,169,955
// float32 parameters, so an Adam full decodes to three 4.7 MB vectors
// (14.0 MB) and a differential at the default ρ = 0.01 to 11,700 pairs.
const benchParams = 1_169_955

var restoreSink any

// BenchmarkRestoreFull is the restore path's baseline: one benchmark-sized
// full checkpoint decoded from memory (decode) and loaded from a File store
// (load_file).
// TestRestoreAllocs holds its allocations.
func BenchmarkRestoreFull(b *testing.B) {
	f := ruleFull(b, "adam", benchParams)
	var rec bytes.Buffer
	if err := f.Encode(&rec); err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(rec.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := DecodeFull(bytes.NewReader(rec.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			restoreSink = got
		}
	})
	b.Run("load_file", func(b *testing.B) {
		store, err := storage.NewFile(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		name, err := SaveFull(store, f)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(rec.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := LoadFull(store, name)
			if err != nil {
				b.Fatal(err)
			}
			restoreSink = got
		}
	})
}

// BenchmarkPersistFull is the persist path's baseline, the write side of
// BenchmarkRestoreFull: the same full encoded to io.Discard (encode) and
// saved to a File store (save_file).
func BenchmarkPersistFull(b *testing.B) {
	f := ruleFull(b, "adam", benchParams)
	var rec bytes.Buffer
	if err := f.Encode(&rec); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(rec.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := f.Encode(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("save_file", func(b *testing.B) {
		store, err := storage.NewFile(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(rec.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := SaveFull(store, f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchDiffRecord encodes one benchmark-sized sparse differential at the
// default ρ = 0.01.
func benchDiffRecord(t testing.TB) *bytes.Buffer {
	t.Helper()
	g := tensor.New(benchParams)
	tensor.NewRNG(6).FillUniform(g, -1, 1)
	tk, err := compress.NewTopK(0.01)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := tk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := (&Diff{Kind: KindGradient, FirstIter: 41, LastIter: 41, Count: 1, Payload: payload}).Encode(&rec); err != nil {
		t.Fatal(err)
	}
	return &rec
}

// BenchmarkRestoreDiff decodes one benchmark-sized sparse differential.
func BenchmarkRestoreDiff(b *testing.B) {
	rec := benchDiffRecord(b)
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(rec.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := DecodeDiff(bytes.NewReader(rec.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			restoreSink = got
		}
	})
}

// TestRestoreAllocs holds the restore path at its allocation bounds.
// Decoding a full is meant to allocate the three decoded vectors (14.0 MB)
// and nothing else of their size, so a staging copy shows as a multiple of
// that; decoding a differential allocates its 11,700 pairs. Each count bound
// is the count measured when it was set plus half an object: 21.1 allocs
// for the full's decode (the CRC helper's goroutine allocates on some calls),
// 24 for its load from a File store, 10 for the differential's decode. Each
// byte bound is 1.25× what a call took when the bytes were first gated:
// 14,058,496 B, 14,059,283 B and 98,618 B.
func TestRestoreAllocs(t *testing.T) {
	f := ruleFull(t, "adam", benchParams)
	var full bytes.Buffer
	if err := f.Encode(&full); err != nil {
		t.Fatal(err)
	}
	diff := benchDiffRecord(t)
	t.Run("full_decode", func(t *testing.T) {
		allocgate.Check(t, 10, 21.5, 17_573_120, func() {
			got, err := DecodeFull(bytes.NewReader(full.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			restoreSink = got
		})
	})
	t.Run("full_load_file", func(t *testing.T) {
		store, err := storage.NewFile(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		name, err := SaveFull(store, f)
		if err != nil {
			t.Fatal(err)
		}
		allocgate.Check(t, 10, 24.5, 17_574_104, func() {
			got, err := LoadFull(store, name)
			if err != nil {
				t.Fatal(err)
			}
			restoreSink = got
		})
	})
	t.Run("diff_decode", func(t *testing.T) {
		allocgate.Check(t, 100, 10.5, 123_273, func() {
			got, err := DecodeDiff(bytes.NewReader(diff.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			restoreSink = got
		})
	})
}

// countingWriter counts the Write calls a record takes and keeps nothing.
type countingWriter struct{ calls int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	return len(p), nil
}

// A record's small fields leave in one Write before each vector: an Adam
// full takes seven (three field runs, its three vectors, the CRC trailer),
// a sparse differential four (both headers, its two vectors, the trailer).
func TestRecordWrites(t *testing.T) {
	f := ruleFull(t, "adam", 64)
	d := sampleDiff(t, 640, 1)
	for _, c := range []struct {
		what   string
		encode func(io.Writer) error
		max    int
	}{{"full", f.Encode, 7}, {"diff", d.Encode, 4}} {
		var w countingWriter
		if err := c.encode(&w); err != nil {
			t.Fatal(err)
		}
		if w.calls > c.max {
			t.Errorf("%s record took %d writes, want at most %d", c.what, w.calls, c.max)
		}
	}
}

// TestPersistAllocs holds the persist path's encodes at their allocation
// bounds: the benchmark-sized full and differential written to io.Discard.
// Each count bound is the count measured when the gate was set plus half an
// object (4 for the full: its two sorted key lists, the field writer and the
// CRC tee; 2 for the differential), each byte bound 1.25× the 312 B and
// 216 B a call took then.
func TestPersistAllocs(t *testing.T) {
	f := ruleFull(t, "adam", benchParams)
	d, err := DecodeDiff(bytes.NewReader(benchDiffRecord(t).Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what      string
		encode    func(io.Writer) error
		maxAllocs float64
		maxBytes  float64
	}{{"full", f.Encode, 4.5, 390}, {"diff", d.Encode, 2.5, 270}} {
		t.Run(c.what, func(t *testing.T) {
			allocgate.Check(t, 100, c.maxAllocs, c.maxBytes, func() {
				if err := c.encode(io.Discard); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
