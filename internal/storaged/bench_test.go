package storaged_test

import (
	"fmt"
	"io"
	"testing"

	"lowdiff/internal/allocgate"
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

// coldName is a full that lives in the cold File tier only: it is written
// to the tenant's directory before the daemon opens it.
const coldName = "full-cold.ckpt"

// startPoolFull starts a daemon over Tiered(File) and fills the three
// names the pool benchmark and its allocation gate cycle through. The hot
// tier is sized like plus_pool's (4.8 fulls), so those names stay hot and
// File sees no traffic but coldName's reads.
func startPoolFull(t testing.TB) (*testServer, *storage.Remote, []byte) {
	t.Helper()
	dir := t.TempDir()
	obj := patterned(1, fullSize)
	cold, err := storage.NewFile(dir + "/bench")
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteObject(cold, coldName, obj); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, storaged.Config{
		OpenStore: func(tenant string) (storage.Store, error) {
			file, err := storage.NewFile(dir + "/" + tenant)
			if err != nil {
				return nil, err
			}
			return storage.NewTiered(file, fullSize*48/10, fullSize*24/10)
		},
	})
	r := dialTenant(t, srv, "bench", storage.RemoteOptions{})
	for i := 0; i < 3; i++ {
		if err := writeFullShaped(r, poolName(i), obj); err != nil {
			t.Fatal(err)
		}
	}
	return srv, r, obj
}

func poolName(i int) string { return fmt.Sprintf("full-%012d.ckpt", i%3) }

// readFull reads name the way the decoder does: into its own
// vector-sized buffer.
func readFull(r storage.Store, name string, buf []byte) error {
	rc, err := r.Open(name)
	if err != nil {
		return err
	}
	n, err := io.CopyBuffer(struct{ io.Writer }{io.Discard}, rc, buf)
	if err != nil || n != fullSize {
		_ = rc.Close() // the short read is the error to report
		return fmt.Errorf("read %d bytes, err %v", n, err)
	}
	return rc.Close()
}

// BenchmarkPoolFull is the pool's baseline: one full-sized object through
// Remote → storaged → Tiered(File), up, down from the hot tier, and down
// from the cold one. TestPoolFullAllocs holds the first two's allocations.
func BenchmarkPoolFull(b *testing.B) {
	srv, r, obj := startPoolFull(b)
	b.Run("put", func(b *testing.B) {
		b.SetBytes(fullSize)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := writeFullShaped(r, poolName(i), obj); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get", func(b *testing.B) {
		b.SetBytes(fullSize)
		b.ReportAllocs()
		// The first, untimed read fills the frame pool, so B/op is what a
		// read costs and not the pool's warm-up divided by b.N.
		buf := make([]byte, 4*fullParams)
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if err := readFull(r, poolName(i+1), buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get_cold", func(b *testing.B) {
		b.SetBytes(fullSize)
		b.ReportAllocs()
		buf := make([]byte, 4*fullParams)
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if err := readFull(r, coldName, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	quiesce(b, srv, "bench")
}

// TestPoolFullAllocs holds the pool's wire path at its allocation bounds.
// A put is meant to allocate the stored copy of the object (14.0 MB) and
// nothing else of its size; a get nothing of its size at all, so a copy of
// the object coming back is a factor of a thousand. The put's bounds are
// 1.25× the 156 allocs and 14,088,068 B one call took when the gate was
// set. The get's are 1.25× the most one call took over 20 runs of the
// package, 86.1 allocs and 4,096 B: its client reads into the caller's
// buffer and borrows no frame, and the daemon borrows one, for the object's
// last part-chunk. The get runs 100 times so that one miss in the frame
// pool is not a whole megabyte a call.
func TestPoolFullAllocs(t *testing.T) {
	srv, r, obj := startPoolFull(t)
	t.Run("put", func(t *testing.T) {
		var i int
		allocgate.Check(t, 10, 195, 17_610_085, func() {
			if err := writeFullShaped(r, poolName(i), obj); err != nil {
				t.Fatal(err)
			}
			i++
		})
	})
	t.Run("get", func(t *testing.T) {
		buf := make([]byte, 4*fullParams)
		var i int
		allocgate.Check(t, 100, 107.625, 5_120, func() {
			if err := readFull(r, poolName(i), buf); err != nil {
				t.Fatal(err)
			}
			i++
		})
	})
	quiesce(t, srv, "bench")
}
