package storage_test

import (
	"bytes"
	"io"
	"math/bits"
	"slices"
	"testing"

	"lowdiff/internal/storage"
	"lowdiff/internal/storaged"
	"lowdiff/internal/tensor"
)

// contractWrites are the lengths one object is written in: single bytes,
// pieces under and over Mem's 256 KiB staging piece and Remote's 1 MiB
// chunk, and a tail that leaves a chunk part-filled — the shapes a
// checkpoint encode produces (headers, then whole vectors).
var contractWrites = []int{1, 7, 8, 300 << 10, 3, 1<<20 + 5, 64, 2<<20 + 3, 11}

func contractBytes() int {
	total := 0
	for _, n := range contractWrites {
		total += n
	}
	return total
}

// contractStores are every writer this package ships, each with the
// committed object's expected relation to the bytes written: equal, or
// (Chaos flipping a bit of every write) one bit away.
func contractStores(t *testing.T) []struct {
	name    string
	store   storage.Store
	flipped bool
} {
	t.Helper()
	must := func(s storage.Store, err error) storage.Store {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	file := must(storage.NewFile(t.TempDir()))
	// A hot tier below one object: every commit spills, the last one
	// spilling the object before it as well.
	cold, err := storage.NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spilling, err := storage.NewTiered(cold, 1<<20, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteObject(spilling, "earlier", make([]byte, 600<<10)); err != nil {
		t.Fatal(err)
	}
	srv, err := storaged.Start("127.0.0.1:0", storaged.Config{
		OpenStore: func(string) (storage.Store, error) { return storage.NewMem(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	remote, err := storage.DialRemote(srv.Addr(), "contract", storage.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = remote.Close() })
	hooked := 0
	hooks := &storage.Interposer{Store: storage.NewMem(), Writer: func(_ string, create func() (io.WriteCloser, error)) (io.WriteCloser, error) {
		return storage.WriteHooks{Write: func(p []byte) { hooked += len(p) }}.Wrap(create())
	}}
	t.Cleanup(func() {
		if want := contractBytes(); !t.Failed() && hooked != want {
			t.Errorf("the Interposer's Write hook saw %d bytes, want %d", hooked, want)
		}
		if n := spilling.Evictions(); !t.Failed() && n < 2 {
			t.Errorf("the spilling Tiered store evicted %d objects, want both", n)
		}
	})
	return []struct {
		name    string
		store   storage.Store
		flipped bool
	}{
		{"Mem", storage.NewMem(), false},
		{"File", file, false},
		{"Tiered/hot", must(storage.NewTiered(storage.NewMem(), 64<<20, 32<<20)), false},
		{"Tiered/spilling", spilling, false},
		{"Remote", remote, false},
		{"Chaos/bitflip", must(storage.NewChaos(storage.NewMem(), storage.ChaosConfig{Seed: 3, BitFlipWriteProb: 1})), true},
		{"Latency", must(storage.NewLatency(storage.NewMem(), 0)), false},
		{"Throttled", must(storage.NewThrottled(storage.NewMem(), 1e12)), false},
		{"Stats", storage.NewStats(storage.NewMem()), false},
		{"Interposer/WriteHooks", hooks, false},
	}
}

// Zero-copy checkpoint encoding hands Write a vector's live memory, so every
// writer must keep io.Writer's rule: p is neither modified nor retained once
// Write returns. After each Write the caller's buffer is checked against what
// it held and then overwritten; the committed object must still hold the
// bytes written (one bit away under Chaos's bit flip), and the buffer must
// still hold the overwrite at the end.
func TestWritersNeitherModifyNorRetainP(t *testing.T) {
	want := make([]byte, contractBytes())
	r := tensor.NewRNG(5)
	for i := range want {
		want[i] = byte(r.Intn(256))
	}
	for _, c := range contractStores(t) {
		t.Run(c.name, func(t *testing.T) {
			w, err := c.store.Create("object")
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, slices.Max(contractWrites))
			off := 0
			for i, n := range contractWrites {
				p := buf[:n]
				copy(p, want[off:off+n])
				if k, err := w.Write(p); err != nil || k != n {
					t.Fatalf("write %d: %d of %d bytes, %v", i, k, n, err)
				}
				if !bytes.Equal(p, want[off:off+n]) {
					t.Fatalf("write %d: the writer changed the caller's buffer", i)
				}
				for j := range buf {
					buf[j] = 0xA5
				}
				off += n
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			for j, b := range buf {
				if b != 0xA5 {
					t.Fatalf("byte %d of the caller's buffer changed after its Write returned", j)
				}
			}
			got, err := storage.ReadObject(c.store, "object")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("committed %d bytes, wrote %d", len(got), len(want))
			}
			diff := 0
			for i := range got {
				diff += bits.OnesCount8(got[i] ^ want[i])
			}
			wantDiff := 0
			if c.flipped {
				wantDiff = 1
			}
			if diff != wantDiff {
				t.Fatalf("the committed object is %d bits away from the bytes written, want %d", diff, wantDiff)
			}
		})
	}
}
