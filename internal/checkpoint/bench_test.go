package checkpoint

import (
	"bytes"
	"testing"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/compress"
	"lowdiff/internal/parallel"
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
// (load_file), on the two-worker pool recovery runs with there.
// TestRestoreAllocs holds its allocations.
func BenchmarkRestoreFull(b *testing.B) {
	f := ruleFull(b, "adam", benchParams)
	var rec bytes.Buffer
	if err := f.Encode(&rec); err != nil {
		b.Fatal(err)
	}
	pool, _ := parallel.New(2)
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(rec.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := DecodeFullWith(bytes.NewReader(rec.Bytes()), pool)
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
			got, err := LoadFullWith(store, name, pool)
			if err != nil {
				b.Fatal(err)
			}
			restoreSink = got
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
	pool, _ := parallel.New(2)
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(rec.Len()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := DecodeDiffWith(bytes.NewReader(rec.Bytes()), pool)
			if err != nil {
				b.Fatal(err)
			}
			restoreSink = got
		}
	})
}

// TestRestoreAllocs holds the restore path at its allocation bounds, on
// the two-worker pool recovery runs with. Decoding a full is meant to
// allocate the three decoded vectors (14.0 MB) and nothing else of their
// size, so a staging copy shows as a multiple of that; decoding a
// differential allocates its 11,700 pairs. Each bound is 1.25× what one
// call took when the gate was set: 120 allocs and 14,072,526 B for the
// full's decode, 123 and 14,062,015 B for its load from a File store,
// 18 and 99,246 B for the differential's decode.
func TestRestoreAllocs(t *testing.T) {
	f := ruleFull(t, "adam", benchParams)
	var full bytes.Buffer
	if err := f.Encode(&full); err != nil {
		t.Fatal(err)
	}
	diff := benchDiffRecord(t)
	pool, _ := parallel.New(2)
	t.Run("full_decode", func(t *testing.T) {
		allocgate.Check(t, 10, 150, 17_590_658, func() {
			got, err := DecodeFullWith(bytes.NewReader(full.Bytes()), pool)
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
		allocgate.Check(t, 10, 153.75, 17_577_519, func() {
			got, err := LoadFullWith(store, name, pool)
			if err != nil {
				t.Fatal(err)
			}
			restoreSink = got
		})
	})
	t.Run("diff_decode", func(t *testing.T) {
		allocgate.Check(t, 100, 22.5, 124_058, func() {
			got, err := DecodeDiffWith(bytes.NewReader(diff.Bytes()), pool)
			if err != nil {
				t.Fatal(err)
			}
			restoreSink = got
		})
	})
}
