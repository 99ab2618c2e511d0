package storage

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func newTestTiered(t *testing.T, high, low int64) (*Tiered, *Mem) {
	t.Helper()
	cold := NewMem()
	ts, err := NewTiered(cold, high, low)
	if err != nil {
		t.Fatalf("NewTiered: %v", err)
	}
	return ts, cold
}

func TestTieredWatermarkEviction(t *testing.T) {
	ts, cold := newTestTiered(t, 100, 40)
	// Four 30-byte objects: the fourth commit pushes hot to 120 > 100 and
	// eviction must spill oldest-first until hot <= 40, i.e. a, b, c spill.
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 30) }
	for i := 0; i < 4; i++ {
		if err := WriteObject(ts, fmt.Sprintf("obj-%d", i), payload(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if got := ts.HotBytes(); got != 30 {
		t.Fatalf("hot bytes after eviction = %d, want 30", got)
	}
	if got := ts.Evictions(); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("obj-%d", i)
		data, err := ReadObject(cold, name)
		if err != nil {
			t.Fatalf("cold read %s: %v", name, err)
		}
		if !bytes.Equal(data, payload(i)) {
			t.Fatalf("cold %s corrupted after spill", name)
		}
	}
	if _, err := cold.Size("obj-3"); !IsNotExist(err) {
		t.Fatalf("newest object leaked to cold tier: err=%v", err)
	}
}

func TestTieredReadThroughAfterEviction(t *testing.T) {
	ts, _ := newTestTiered(t, 50, 10)
	want := map[string][]byte{}
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("ckpt-%d", i)
		data := bytes.Repeat([]byte{byte(i + 1)}, 20)
		want[name] = data
		if err := WriteObject(ts, name, data); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	// Reads must be tier-transparent regardless of where each object lives.
	for name, data := range want {
		got, err := ReadObject(ts, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %s: got %q want %q", name, got, data)
		}
		sz, err := ts.Size(name)
		if err != nil || sz != int64(len(data)) {
			t.Fatalf("size %s = %d, %v; want %d", name, sz, err, len(data))
		}
	}
}

func TestTieredListMergesTiers(t *testing.T) {
	ts, _ := newTestTiered(t, 50, 10)
	for i := 0; i < 5; i++ {
		if err := WriteObject(ts, fmt.Sprintf("full-%d", i), bytes.Repeat([]byte{1}, 20)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := WriteObject(ts, "other", []byte{9}); err != nil {
		t.Fatalf("write: %v", err)
	}
	names, err := ts.List("full-")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	wantNames := []string{"full-0", "full-1", "full-2", "full-3", "full-4"}
	if len(names) != len(wantNames) {
		t.Fatalf("List = %v, want %v", names, wantNames)
	}
	for i, n := range wantNames {
		if names[i] != n {
			t.Fatalf("List = %v, want %v", names, wantNames)
		}
	}
}

func TestTieredDeleteAcrossTiers(t *testing.T) {
	ts, cold := newTestTiered(t, 50, 10)
	for i := 0; i < 4; i++ {
		if err := WriteObject(ts, fmt.Sprintf("d-%d", i), bytes.Repeat([]byte{1}, 20)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	// d-0..d-2 should be cold by now; d-3 hot.
	if _, err := cold.Size("d-0"); err != nil {
		t.Fatalf("expected d-0 cold: %v", err)
	}
	for _, name := range []string{"d-0", "d-3"} {
		if err := ts.Delete(name); err != nil {
			t.Fatalf("Delete %s: %v", name, err)
		}
		if _, err := ts.Size(name); !IsNotExist(err) {
			t.Fatalf("%s still visible after delete: %v", name, err)
		}
	}
	if err := ts.Delete("missing"); !IsNotExist(err) {
		t.Fatalf("Delete missing = %v, want not-exist", err)
	}
}

func TestTieredAbortLeavesNothing(t *testing.T) {
	ts, cold := newTestTiered(t, 100, 40)
	w, err := ts.Create("aborted")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := w.Write([]byte("staged")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := AbortWriter(w); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if _, err := ts.Size("aborted"); !IsNotExist(err) {
		t.Fatalf("aborted object visible: %v", err)
	}
	if got := ts.HotBytes(); got != 0 {
		t.Fatalf("hot bytes after abort = %d, want 0", got)
	}
	if names, _ := cold.List(""); len(names) != 0 {
		t.Fatalf("cold tier has debris after abort: %v", names)
	}
}

func TestTieredOverwriteReplacesHotCopy(t *testing.T) {
	ts, _ := newTestTiered(t, 100, 40)
	if err := WriteObject(ts, "obj", bytes.Repeat([]byte{1}, 30)); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteObject(ts, "obj", bytes.Repeat([]byte{2}, 10)); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if got := ts.HotBytes(); got != 10 {
		t.Fatalf("hot bytes after overwrite = %d, want 10", got)
	}
	data, err := ReadObject(ts, "obj")
	if err != nil || !bytes.Equal(data, bytes.Repeat([]byte{2}, 10)) {
		t.Fatalf("read after overwrite = %q, %v", data, err)
	}
}

func TestTieredConcurrentWriters(t *testing.T) {
	ts, _ := newTestTiered(t, 200, 100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("g%d-%d", g, i)
				if err := WriteObject(ts, name, bytes.Repeat([]byte{byte(g)}, 25)); err != nil {
					t.Errorf("write %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	names, err := ts.List("")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(names) != 160 {
		t.Fatalf("object count = %d, want 160", len(names))
	}
	for _, name := range names {
		data, err := ReadObject(ts, name)
		if err != nil || len(data) != 25 {
			t.Fatalf("read %s: len=%d err=%v", name, len(data), err)
		}
	}
}

func TestTieredWatermarkValidation(t *testing.T) {
	if _, err := NewTiered(NewMem(), 10, 20); err == nil {
		t.Fatal("low > high accepted")
	}
	if _, err := NewTiered(NewMem(), 0, 0); err == nil {
		t.Fatal("zero watermarks accepted")
	}
	if _, err := NewTiered(nil, 10, 5); err == nil {
		t.Fatal("nil cold tier accepted")
	}
}

// TestTieredHotCopyOwnsItsBytes commits one object three ways — a single
// Write, several Writes, and a ChunkList (pre-sized staging) — and then
// dirties everything the writers were given: the caller's slices and, for
// the chunk list, the pooled buffers it hands back. Whether the hot tier
// adopted the staging buffer or copied it, the stored bytes are its own.
func TestTieredHotCopyOwnsItsBytes(t *testing.T) {
	tr, _ := newTestTiered(t, 64<<20, 32<<20)
	want := make([]byte, 2*chunkSize+4097)
	for i := range want {
		want[i] = byte(i*13 + i>>9)
	}
	src := append([]byte(nil), want...)

	if err := WriteObject(tr, "one-write", src); err != nil {
		t.Fatal(err)
	}
	w, err := tr.Create("many-writes")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(src); off += 100_000 {
		if _, err := w.Write(src[off:min(off+100_000, len(src))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var wire bytes.Buffer
	for off := 0; off < len(src); off += chunkSize {
		if err := WriteFrame(&wire, OpData, src[off:min(off+chunkSize, len(src))]); err != nil {
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
	if err := l.Commit(tr, "chunk-list"); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	if hot := tr.hot["chunk-list"]; len(hot) != cap(hot) {
		t.Errorf("pre-sized staging ended with %d spare bytes", cap(hot)-len(hot))
	}
	tr.mu.Unlock()

	for i := range src {
		src[i] = 0xee
	}
	for _, c := range l.chunks {
		for i := range c.Body {
			c.Body[i] = 0xdd
		}
	}
	l.Release()
	for _, name := range []string{"one-write", "many-writes", "chunk-list"} {
		got, err := ReadObject(tr, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: stored bytes changed under the hot tier (err %v)", name, err)
		}
	}
}
