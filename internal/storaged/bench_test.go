package storaged_test

import (
	"fmt"
	"io"
	"testing"

	"lowdiff/internal/storage"
	"lowdiff/internal/storaged"
)

// fullSize is the full checkpoint the end-to-end benchmark trains with:
// 1,169,955 float32 parameters plus two Adam slots, 14.0 MB.
const (
	fullParams = 1_169_955
	fullSize   = 3*(8+4*fullParams) + 64
)

// writeFullShaped writes obj the way the checkpoint encoder writes a full:
// a few header bytes, then one multi-megabyte vector after another, each
// behind its 8-byte length.
func writeFullShaped(s storage.Store, name string, obj []byte) error {
	w, err := s.Create(name)
	if err != nil {
		return err
	}
	rest := obj
	for _, n := range []int{16, 8, 4 * fullParams, 24, 8, 4 * fullParams, 16, 8, 4 * fullParams, len(obj)} {
		n = min(n, len(rest))
		if _, err := w.Write(rest[:n]); err != nil {
			_ = storage.AbortWriter(w) // the write error is the one to report
			return err
		}
		rest = rest[n:]
	}
	return w.Close()
}

// BenchmarkPoolFull is the pool's baseline: one full-sized object through
// Remote → storaged → Tiered(File), up and down. B/op is the gated figure
// (scripts/bench.sh, BENCH_pool.json): every copy of the object that the
// path allocates shows in it as a multiple of the object's size, and the
// path is meant to allocate the stored copy and nothing else of that size.
// The hot tier is sized like plus_pool's (4.8 fulls), so the three names the
// benchmark cycles through stay hot and File sees no traffic.
func BenchmarkPoolFull(b *testing.B) {
	dir := b.TempDir()
	srv := startServer(b, storaged.Config{
		OpenStore: func(tenant string) (storage.Store, error) {
			file, err := storage.NewFile(dir + "/" + tenant)
			if err != nil {
				return nil, err
			}
			return storage.NewTiered(file, fullSize*48/10, fullSize*24/10)
		},
	})
	r := dialTenant(b, srv, "bench", storage.RemoteOptions{})
	obj := patterned(1, fullSize)
	name := func(i int) string { return fmt.Sprintf("full-%012d.ckpt", i%3) }
	for i := 0; i < 3; i++ {
		if err := writeFullShaped(r, name(i), obj); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("put", func(b *testing.B) {
		b.SetBytes(fullSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeFullShaped(r, name(i), obj); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		b.SetBytes(fullSize)
		b.ReportAllocs()
		// Read the way the decoder does: into its own vector-sized buffer.
		// The first, untimed read fills the frame pool, so B/op is what a
		// read costs and not the pool's warm-up divided by b.N.
		buf := make([]byte, 4*fullParams)
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			rc, err := r.Open(name(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			n, err := io.CopyBuffer(struct{ io.Writer }{io.Discard}, rc, buf)
			if err != nil || n != fullSize {
				b.Fatalf("read %d bytes, err %v", n, err)
			}
			if err := rc.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	quiesce(b, srv, "bench")
}
