package storage

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"lowdiff/internal/allocgate"
)

// stores runs the shared Store contract tests against each backend and
// each wrapper (over Mem).
func stores(t *testing.T) map[string]Store {
	t.Helper()
	file, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := NewTiered(NewMem(), 64<<20, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Store{"mem": NewMem(), "file": file, "tiered": tiered}
	for name, wrap := range wrappers(t) {
		out[name] = wrap(NewMem())
	}
	return out
}

// wrappers builds every wrapper in this package, configured not to fail,
// sleep or throttle noticeably.
func wrappers(t *testing.T) map[string]func(Store) Store {
	t.Helper()
	must := func(s Store, err error) Store {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]func(Store) Store{
		"chaos":     func(s Store) Store { return must(NewChaos(s, ChaosConfig{Seed: 1})) },
		"latency":   func(s Store) Store { return must(NewLatency(s, 0)) },
		"throttled": func(s Store) Store { return must(NewThrottled(s, 1e12)) },
		"stats":     func(s Store) Store { return NewStats(s) },
	}
}

// badNames breaks the one object-name rule (CheckName) in every way it can.
var badNames = []string{"", ".", "..", "a/b", `a\b`, "/abs", "x.tmp.1", "full-000000000001.ckpt.tmp.7"}

func TestStoreContract(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			// Write, read back.
			if err := WriteObject(s, "a-1", []byte("hello")); err != nil {
				t.Fatal(err)
			}
			data, err := ReadObject(s, "a-1")
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "hello" {
				t.Fatalf("read %q", data)
			}
			// Size.
			n, err := s.Size("a-1")
			if err != nil {
				t.Fatal(err)
			}
			if n != 5 {
				t.Fatalf("size = %d, want 5", n)
			}
			// Overwrite is atomic replacement.
			if err := WriteObject(s, "a-1", []byte("world!")); err != nil {
				t.Fatal(err)
			}
			data, _ = ReadObject(s, "a-1")
			if string(data) != "world!" {
				t.Fatalf("after overwrite read %q", data)
			}
			// List with prefix, sorted.
			if err := WriteObject(s, "a-2", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := WriteObject(s, "b-1", []byte("y")); err != nil {
				t.Fatal(err)
			}
			names, err := s.List("a-")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 2 || names[0] != "a-1" || names[1] != "a-2" {
				t.Fatalf("List(a-) = %v", names)
			}
			all, _ := s.List("")
			if len(all) != 3 {
				t.Fatalf("List() = %v", all)
			}
			// Missing objects.
			if _, err := s.Open("missing"); !IsNotExist(err) {
				t.Fatalf("Open(missing) err = %v", err)
			}
			if _, err := s.Size("missing"); !IsNotExist(err) {
				t.Fatalf("Size(missing) err = %v", err)
			}
			if err := s.Delete("missing"); !IsNotExist(err) {
				t.Fatalf("Delete(missing) err = %v", err)
			}
			// Delete.
			if err := s.Delete("a-2"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open("a-2"); !IsNotExist(err) {
				t.Fatal("deleted object still readable")
			}
			// One name rule for every store.
			for _, bad := range badNames {
				if w, err := s.Create(bad); err == nil {
					_ = AbortWriter(w) // the failure below is the finding
					t.Errorf("Create(%q) accepted", bad)
				}
			}
		})
	}
}

func TestObjectInvisibleUntilClose(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			w, err := s.Create("pending")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("partial")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open("pending"); !IsNotExist(err) {
				t.Fatal("object visible before Close")
			}
			names, _ := s.List("")
			for _, n := range names {
				if n == "pending" {
					t.Fatal("pending object listed before Close")
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := ReadObject(s, "pending")
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "partial" {
				t.Fatalf("read %q", data)
			}
		})
	}
}

func TestMemIsolation(t *testing.T) {
	m := NewMem()
	src := []byte("abc")
	if err := WriteObject(m, "x", src); err != nil {
		t.Fatal(err)
	}
	src[0] = 'z'
	data, _ := ReadObject(m, "x")
	if string(data) != "abc" {
		t.Fatal("store aliases caller buffer")
	}
	if m.TotalBytes() != 3 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
}

// A 1 MiB object written into Mem in one Write is allocated once: the
// staging buffer ends exactly full and becomes the stored object, so the
// bytes bound holds one object and the writer, not two.
func TestMemWriteObjectAllocs(t *testing.T) {
	data := make([]byte, 1<<20)
	m := NewMem()
	allocgate.Check(t, 20, 3.5, 1<<20+512, func() {
		if err := WriteObject(m, "obj", data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFileRejectsBadNames(t *testing.T) {
	f, err := NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a/b", `a\b`, ".", ".."} {
		if _, err := f.Create(bad); err == nil {
			t.Errorf("Create(%q): want error", bad)
		}
		if _, err := f.Open(bad); err == nil {
			t.Errorf("Open(%q): want error", bad)
		}
	}
}

func TestMemRejectsEmptyName(t *testing.T) {
	if _, err := NewMem().Create(""); err == nil {
		t.Fatal("want empty-name error")
	}
}

func TestMemWriterAfterClose(t *testing.T) {
	m := NewMem()
	w, _ := m.Create("x")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("y")); err == nil {
		t.Fatal("want write-after-close error")
	}
	if err := w.Close(); err != nil {
		t.Fatal("double close should be a no-op")
	}
}

func TestThrottledCharges(t *testing.T) {
	var slept time.Duration
	th, err := NewThrottled(NewMem(), 1000) // 1000 B/s
	if err != nil {
		t.Fatal(err)
	}
	th.sleep = func(d time.Duration) { slept += d }
	if err := WriteObject(th, "x", make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	// 500 bytes at 1000 B/s = 500 ms.
	if slept < 490*time.Millisecond || slept > 510*time.Millisecond {
		t.Fatalf("slept %v, want ~500ms", slept)
	}
}

func TestThrottledBatchesSmallWrites(t *testing.T) {
	var calls int
	var slept time.Duration
	th, _ := NewThrottled(NewMem(), 1e6)
	th.sleep = func(d time.Duration) { calls++; slept += d }
	w, _ := th.Create("x")
	for i := 0; i < 100; i++ {
		if _, err := w.Write(make([]byte, 1)); err != nil { // 1 µs each, below 1 ms
			t.Fatal(err)
		}
	}
	if calls != 0 {
		t.Fatalf("sub-millisecond debts should batch during writes; slept %d times", calls)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Close settles the accumulated 100 µs in one sleep: short-object
	// workloads must still pay for every byte, or throttled-store
	// benchmarks under-charge bandwidth.
	if calls != 1 {
		t.Fatalf("Close should flush the debt in one sleep; slept %d times", calls)
	}
	if want := 100 * time.Microsecond; slept != want {
		t.Fatalf("flushed %v of debt, want %v", slept, want)
	}
}

// TestThrottledFlushOnAbort: an aborted object still consumed bandwidth.
func TestThrottledFlushOnAbort(t *testing.T) {
	var slept time.Duration
	th, _ := NewThrottled(NewMem(), 1e6)
	th.sleep = func(d time.Duration) { slept += d }
	w, _ := th.Create("x")
	if _, err := w.Write(make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if err := AbortWriter(w); err != nil {
		t.Fatal(err)
	}
	if want := 500 * time.Microsecond; slept != want {
		t.Fatalf("abort flushed %v, want %v", slept, want)
	}
	if _, err := th.Open("x"); !IsNotExist(err) {
		t.Fatal("aborted object became visible")
	}
}

func TestThrottledValidation(t *testing.T) {
	if _, err := NewThrottled(NewMem(), 0); err == nil {
		t.Fatal("want bandwidth error")
	}
	if _, err := NewThrottled(NewMem(), -5); err == nil {
		t.Fatal("want bandwidth error")
	}
	if _, err := NewThrottled(NewMem(), math.NaN()); err == nil {
		t.Fatal("want bandwidth error for NaN")
	}
}

func TestStatsCounts(t *testing.T) {
	st := NewStats(NewMem())
	if err := WriteObject(st, "a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := WriteObject(st, "b", make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadObject(st, "a"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if st.Writes() != 2 {
		t.Fatalf("writes=%d, want 2", st.Writes())
	}
}

func TestConcurrentAccess(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for j := 0; j < 20; j++ {
						obj := fmt.Sprintf("obj-%d-%d", i, j)
						if err := WriteObject(s, obj, []byte(obj)); err != nil {
							t.Error(err)
							return
						}
						data, err := ReadObject(s, obj)
						if err != nil || string(data) != obj {
							t.Errorf("read back %q: %v", data, err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			names, err := s.List("obj-")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 160 {
				t.Fatalf("got %d objects, want 160", len(names))
			}
		})
	}
}

func TestFileSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	f1, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteObject(f1, "persisted", []byte("data")); err != nil {
		t.Fatal(err)
	}
	f2, err := NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ReadObject(f2, "persisted")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "data" {
		t.Fatalf("read %q", data)
	}
}

// TestFileWriterTornWriteRegression reproduces the atomicity violation the
// old fileWriter had: a Write fails partway through an object, the caller
// Closes the writer, and the torn temp file was renamed into place anyway
// (Sync and Close of the file handle both still succeed, so nothing on the
// old Close path noticed). The file is opened read-only so Write fails
// deterministically while Sync stays healthy, exactly the shape of a
// device-level write error. The fixed writer latches the write error and
// removes the temp: the final name must never appear.
func TestFileWriterTornWriteRegression(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "full-000000000001.ckpt.tmp.1")
	if err := os.WriteFile(tmp, []byte("torn-prefix"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(tmp, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := &fileWriter{f: f, dir: dir, tmp: tmp, final: filepath.Join(dir, "full-000000000001.ckpt")}
	if _, err := w.Write([]byte("rest of the object")); err == nil {
		t.Fatal("write on a read-only fd should fail")
	}
	// The second write must be rejected up front: the object is already torn.
	if _, err := w.Write([]byte("more")); err == nil {
		t.Fatal("write after a failed write should be rejected")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after a failed write must surface the write error")
	}
	if _, err := os.Stat(w.final); !os.IsNotExist(err) {
		t.Fatalf("torn object renamed into place (stat err = %v)", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("staged temp not cleaned up (stat err = %v)", err)
	}
}

// TestFailedWriteThenCloseLeavesStoreUnchanged drives the latched-error
// contract through the public Store surface for the in-process stores:
// after any write error, Close must leave the store unchanged — the object
// absent (or its previous version intact) and no temp debris.
func TestFailedWriteThenCloseLeavesStoreUnchanged(t *testing.T) {
	boom := fmt.Errorf("injected device error")
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteObject(s, "obj", []byte("old version")); err != nil {
				t.Fatal(err)
			}
			w, err := s.Create("obj")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("new ")); err != nil {
				t.Fatal(err)
			}
			latch(t, w, boom)
			if _, err := w.Write([]byte("version")); err == nil {
				t.Fatal("write after latched error should fail")
			}
			if err := w.Close(); err == nil {
				t.Fatal("Close after failed write should fail")
			}
			data, err := ReadObject(s, "obj")
			if err != nil || string(data) != "old version" {
				t.Fatalf("store changed by aborted write: %q, %v", data, err)
			}
		})
	}
}

// latch injects a write error into whichever concrete writer w unwraps to.
func latch(t *testing.T, w io.WriteCloser, err error) {
	t.Helper()
	for {
		switch x := w.(type) {
		case *memWriter:
			x.err = err
			return
		case *fileWriter:
			x.err = err
			return
		case *hookWriter:
			w = x.WriteCloser
		default:
			t.Fatalf("latch: unknown writer %T", w)
		}
	}
}

// TestAbortWriter: aborting a staged write leaves no object and no temp.
func TestAbortWriter(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			w, err := s.Create("aborted")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("staged")); err != nil {
				t.Fatal(err)
			}
			if err := AbortWriter(w); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Open("aborted"); !IsNotExist(err) {
				t.Fatalf("aborted object visible (err = %v)", err)
			}
			names, err := s.List("")
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 0 {
				t.Fatalf("abort left debris: %v", names)
			}
		})
	}
	// Through every wrapper the abort reaches the inner writer: over a File
	// the staged temp goes too.
	for name, wrap := range wrappers(t) {
		t.Run(name+"/file", func(t *testing.T) {
			dir := t.TempDir()
			f, err := NewFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			w, err := wrap(f).Create("aborted")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("staged")); err != nil {
				t.Fatal(err)
			}
			if err := AbortWriter(w); err != nil {
				t.Fatal(err)
			}
			if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
				t.Fatalf("abort left %d files in the store (err %v)", len(entries), err)
			}
		})
	}
}

// TestPresizeThroughWrappers: a ChunkList committed through any wrapper
// still pre-sizes the hot tier's staging buffer, so the object is copied
// once into a buffer that ends exactly full and the commit allocates the
// object and little else. A wrapper that hid the hint made it about 2×.
func TestPresizeThroughWrappers(t *testing.T) {
	const size = 14 * ChunkSize
	var wire bytes.Buffer
	for off := 0; off < size; off += ChunkSize {
		if err := WriteFrame(&wire, OpData, bytes.Repeat([]byte{byte(off >> 20)}, ChunkSize)); err != nil {
			t.Fatal(err)
		}
	}
	var l ChunkList
	for wire.Len() > 0 {
		f, err := ReadPooledFrame(&wire)
		if err != nil {
			t.Fatal(err)
		}
		l.Add(&f)
		f.Release()
	}
	defer l.Release()
	for name, wrap := range wrappers(t) {
		t.Run(name, func(t *testing.T) {
			tr, err := NewTiered(NewMem(), 2*size, size)
			if err != nil {
				t.Fatal(err)
			}
			s := wrap(tr)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = l.Commit(s, "obj")
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; float64(alloc) > 1.1*size {
				t.Errorf("commit allocated %d bytes for a %d-byte object (%.2f×)", alloc, size, float64(alloc)/size)
			}
			tr.mu.Lock()
			hot := tr.hot["obj"]
			tr.mu.Unlock()
			if len(hot) != size || cap(hot) != size {
				t.Errorf("hot copy len %d cap %d, want both %d", len(hot), cap(hot), size)
			}
		})
	}
}

// TestConcurrentSameNameCreateLastCloseWins: two writers staging the same
// object commit independently; the later Close is the version that stays.
func TestConcurrentSameNameCreateLastCloseWins(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			w1, err := s.Create("shared")
			if err != nil {
				t.Fatal(err)
			}
			w2, err := s.Create("shared")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w1.Write([]byte("first")); err != nil {
				t.Fatal(err)
			}
			if _, err := w2.Write([]byte("second")); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w1.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := ReadObject(s, "shared")
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != "first" {
				t.Fatalf("read %q, want the last-closed writer's bytes", data)
			}
		})
	}
}

func TestFileListHidesTemp(t *testing.T) {
	f, _ := NewFile(t.TempDir())
	w, _ := f.Create("x")
	defer w.Close()
	if _, err := io.WriteString(w, "abc"); err != nil {
		t.Fatal(err)
	}
	names, err := f.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Fatalf("temp files leaked into List: %v", names)
	}
}
