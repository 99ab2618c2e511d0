package checkpoint

import (
	"bytes"
	"testing"

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
// (load_file), on the two-worker pool recovery runs with there. B/op is the
// gated figure (scripts/bench.sh, BENCH_dataplane.json): the decoder is meant
// to allocate the three decoded vectors and nothing else of their size, so
// any staging copy shows as a multiple of 14.0 MB.
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

// BenchmarkRestoreDiff decodes one benchmark-sized sparse differential.
func BenchmarkRestoreDiff(b *testing.B) {
	g := tensor.New(benchParams)
	tensor.NewRNG(6).FillUniform(g, -1, 1)
	tk, err := compress.NewTopK(0.01)
	if err != nil {
		b.Fatal(err)
	}
	payload, err := tk.Compress(g)
	if err != nil {
		b.Fatal(err)
	}
	var rec bytes.Buffer
	if err := (&Diff{Kind: KindGradient, FirstIter: 41, LastIter: 41, Count: 1, Payload: payload}).Encode(&rec); err != nil {
		b.Fatal(err)
	}
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
