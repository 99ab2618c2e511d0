// Package storage provides the checkpoint stores the paper persists to:
// an in-memory store (Gemini-style CPU-memory checkpoints and tests), a
// file store with atomic create (local SSD), a bandwidth-throttled wrapper
// that emulates a storage device of a given write bandwidth, and a stats
// wrapper for accounting bytes and operations.
//
// Writes are atomic at object granularity: an object is either fully
// present under its final name or absent, so a crash mid-write never leaves
// a torn checkpoint visible (the file store stages to a temp name and
// renames on Close).
package storage

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Store is an object store keyed by flat names. Implementations must be
// safe for concurrent use.
type Store interface {
	// Create opens a new object for writing. The object becomes visible
	// atomically when the returned writer is closed; closing with an
	// intervening error leaves the store unchanged.
	Create(name string) (io.WriteCloser, error)
	// Open opens an object for reading.
	Open(name string) (io.ReadCloser, error)
	// List returns the names with the given prefix, sorted.
	List(prefix string) ([]string, error)
	// Delete removes an object. Deleting a missing object is an error.
	Delete(name string) error
	// Size returns an object's byte size.
	Size(name string) (int64, error)
}

// WriteObject writes data as one object.
func WriteObject(s Store, name string, data []byte) error {
	w, err := s.Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		_ = AbortWriter(w) // write failed; surface that error, not the abort's
		return err
	}
	return w.Close()
}

// AbortWriter discards an in-progress object write: nothing becomes
// visible and any staged bytes (temp files, buffers) are released. Every
// writer in this package implements Abort; for foreign writers the
// fallback is Close, which — under this package's contract — must itself
// refuse to commit after an intervening write error.
func AbortWriter(w io.WriteCloser) error {
	if a, ok := w.(interface{ Abort() error }); ok {
		return a.Abort()
	}
	return w.Close()
}

// ReadObject reads an entire object.
func ReadObject(s Store, name string) ([]byte, error) {
	r, err := s.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// ErrNotExist reports a missing object.
type notExistError struct{ name string }

func (e *notExistError) Error() string {
	return fmt.Sprintf("storage: object %q does not exist", e.name)
}

// IsNotExist reports whether err indicates a missing object.
func IsNotExist(err error) bool {
	if err == nil {
		return false
	}
	if _, ok := err.(*notExistError); ok {
		return true
	}
	return os.IsNotExist(err)
}

// Mem is an in-memory store.
type Mem struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{objects: make(map[string][]byte)} }

// memPiece is the size from which memWriter stops growing a staging
// buffer by reallocating it and starts a new one beside it instead.
const memPiece = 256 << 10

// memWriter stages an object in memory and hands the staged bytes to
// commit on Close. commit may keep the slice: the writer is finished with
// it. A buffer that ends exactly full — staged by one Write, pre-sized to
// the object's length, or joined from pieces on Close — carries no growth
// slack, which is what lets Tiered adopt it instead of copying.
//
// Small objects grow in one buffer by append. A buffer that has reached
// memPiece and has no room for the next Write is set aside whole and a new
// one started, so a large object that arrives in many Writes and never
// said how long it would be is copied once on the way in and once when
// Close joins the pieces, instead of once more at every regrowth.
type memWriter struct {
	buf    []byte
	pieces [][]byte // full buffers set aside, in order; buf follows them
	commit func([]byte)
	closed bool
	err    error // latched write error; set means Close must not commit
}

// presize makes the staging buffer exactly n bytes long ahead of the first
// Write, for a caller that knows the object's length.
func (w *memWriter) presize(n int64) {
	if w.buf == nil {
		w.buf = make([]byte, 0, n)
	}
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write after close")
	}
	if w.err != nil {
		return 0, w.err
	}
	if len(w.buf) >= memPiece && len(p) > cap(w.buf)-len(w.buf) {
		w.pieces = append(w.pieces, w.buf)
		w.buf = nil
	}
	if w.buf == nil {
		w.buf = make([]byte, len(p))
		copy(w.buf, p)
	} else {
		w.buf = append(w.buf, p...)
	}
	return len(p), nil
}

func (w *memWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		// A write failed earlier: committing would publish a torn object.
		return w.err
	}
	data := w.buf
	if len(w.pieces) > 0 {
		total := len(w.buf)
		for _, piece := range w.pieces {
			total += len(piece)
		}
		data = make([]byte, 0, total)
		for _, piece := range w.pieces {
			data = append(data, piece...)
		}
		data = append(data, w.buf...)
	}
	w.buf, w.pieces = nil, nil
	w.commit(data)
	return nil
}

// Abort discards the staged bytes; nothing becomes visible.
func (w *memWriter) Abort() error {
	w.closed = true
	w.buf, w.pieces = nil, nil
	return nil
}

// Create implements Store.
func (m *Mem) Create(name string) (io.WriteCloser, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: empty object name")
	}
	return &memWriter{commit: func(data []byte) {
		cp := append([]byte(nil), data...)
		m.mu.Lock()
		m.objects[name] = cp
		m.mu.Unlock()
	}}, nil
}

// Open implements Store.
func (m *Mem) Open(name string) (io.ReadCloser, error) {
	m.mu.RLock()
	data, ok := m.objects[name]
	m.mu.RUnlock()
	if !ok {
		return nil, &notExistError{name}
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// List implements Store.
func (m *Mem) List(prefix string) ([]string, error) {
	m.mu.RLock()
	var out []string
	for name := range m.objects {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	m.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// Delete implements Store.
func (m *Mem) Delete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objects[name]; !ok {
		return &notExistError{name}
	}
	delete(m.objects, name)
	return nil
}

// Size implements Store.
func (m *Mem) Size(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[name]
	if !ok {
		return 0, &notExistError{name}
	}
	return int64(len(data)), nil
}

// TotalBytes returns the sum of all object sizes.
func (m *Mem) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, data := range m.objects {
		n += int64(len(data))
	}
	return n
}

// File is a directory-backed store with atomic object creation via
// temp-file + rename.
type File struct {
	dir string
	seq atomic.Uint64
}

// NewFile returns a store rooted at dir, creating it if needed.
func NewFile(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	return &File{dir: dir}, nil
}

// path maps an object name to a file path, rejecting path escapes.
func (f *File) path(name string) (string, error) {
	if name == "" || strings.Contains(name, "/") || strings.Contains(name, "\\") || name == "." || name == ".." {
		return "", fmt.Errorf("storage: invalid object name %q", name)
	}
	return filepath.Join(f.dir, name), nil
}

type fileWriter struct {
	f      *os.File
	dir    string
	tmp    string
	final  string
	closed bool
	err    error // latched write error; set means Close must not rename
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write after close")
	}
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.f.Write(p)
	if err != nil {
		w.err = err
	}
	return n, err
}

func (w *fileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		// A write failed earlier: the temp holds a torn object. Renaming it
		// into place would violate the store's atomicity contract (the
		// recovery layer would later quarantine it); remove it instead.
		_ = w.f.Close()      // already failing; the write error is primary
		_ = os.Remove(w.tmp) // best-effort cleanup of the staged temp
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()      // already failing; sync error is primary
		_ = os.Remove(w.tmp) // best-effort cleanup of the staged temp
		return err
	}
	if err := w.f.Close(); err != nil {
		_ = os.Remove(w.tmp) // best-effort cleanup of the staged temp
		return err
	}
	if err := os.Rename(w.tmp, w.final); err != nil {
		_ = os.Remove(w.tmp)
		return err
	}
	// The rename is only durable once the directory entry itself is synced:
	// a crash right after Close could otherwise lose a checkpoint the
	// caller was told is persistent.
	return syncDir(w.dir)
}

// Abort removes the staged temp; nothing becomes visible.
func (w *fileWriter) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	_ = w.f.Close() // the temp is being discarded; Remove decides the error
	if err := os.Remove(w.tmp); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// syncDir fsyncs a directory so renames within it survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for sync: %w", err)
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // already failing; the sync error is primary
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	return d.Close()
}

// Create implements Store.
func (f *File) Create(name string) (io.WriteCloser, error) {
	final, err := f.path(name)
	if err != nil {
		return nil, err
	}
	tmp := fmt.Sprintf("%s.tmp.%d", final, f.seq.Add(1))
	file, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("storage: create temp: %w", err)
	}
	return &fileWriter{f: file, dir: f.dir, tmp: tmp, final: final}, nil
}

// Open implements Store.
func (f *File) Open(name string) (io.ReadCloser, error) {
	p, err := f.path(name)
	if err != nil {
		return nil, err
	}
	file, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &notExistError{name}
		}
		return nil, err
	}
	return file, nil
}

// List implements Store.
func (f *File) List(prefix string) ([]string, error) {
	entries, err := os.ReadDir(f.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.Contains(name, ".tmp.") {
			continue
		}
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Delete implements Store.
func (f *File) Delete(name string) error {
	p, err := f.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		if os.IsNotExist(err) {
			return &notExistError{name}
		}
		return err
	}
	return nil
}

// Size implements Store.
func (f *File) Size(name string) (int64, error) {
	p, err := f.path(name)
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(p)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, &notExistError{name}
		}
		return 0, err
	}
	return info.Size(), nil
}

// Throttled wraps a store and limits write throughput to emulate a storage
// device of a given bandwidth (e.g. an SSD or a 25 Gbps remote link). Reads
// are not throttled; checkpoint writes are the contended path the paper
// studies.
type Throttled struct {
	Store
	bytesPerSec float64
	sleep       func(time.Duration) // test seam
	mu          sync.Mutex
	debt        time.Duration
	slept       atomic.Int64 // nanoseconds charged, for tests/metrics
}

// NewThrottled wraps s with a write-bandwidth limit in bytes/second.
func NewThrottled(s Store, bytesPerSec float64) (*Throttled, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("storage: throttle bandwidth %v must be positive", bytesPerSec)
	}
	return &Throttled{Store: s, bytesPerSec: bytesPerSec, sleep: time.Sleep}, nil
}

// ThrottledNanos returns the total nanoseconds of write delay charged.
func (t *Throttled) ThrottledNanos() int64 { return t.slept.Load() }

type throttledWriter struct {
	io.WriteCloser
	t *Throttled
}

func (w *throttledWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	if n > 0 {
		w.t.charge(n)
	}
	return n, err
}

// Close settles any unpaid sub-millisecond debt before committing: a
// workload of short objects (manifests, diffs) otherwise writes faster
// than the configured bandwidth because each object's tail debt is
// silently forgiven when its writer goes away.
func (w *throttledWriter) Close() error {
	w.t.flushDebt()
	return w.WriteCloser.Close()
}

// Abort settles the debt too — the bytes crossed the emulated device even
// though the object is being discarded — then aborts the staged write.
func (w *throttledWriter) Abort() error {
	w.t.flushDebt()
	return AbortWriter(w.WriteCloser)
}

// charge sleeps long enough to keep write throughput at the configured
// bandwidth, batching sub-millisecond debts to avoid timer churn.
func (t *Throttled) charge(n int) {
	d := time.Duration(float64(n) / t.bytesPerSec * float64(time.Second))
	t.mu.Lock()
	t.debt += d
	var pay time.Duration
	if t.debt >= time.Millisecond {
		pay = t.debt
		t.debt = 0
	}
	t.mu.Unlock()
	if pay > 0 {
		t.slept.Add(int64(pay))
		t.sleep(pay)
	}
}

// flushDebt pays whatever debt has accrued, however small.
func (t *Throttled) flushDebt() {
	t.mu.Lock()
	pay := t.debt
	t.debt = 0
	t.mu.Unlock()
	if pay > 0 {
		t.slept.Add(int64(pay))
		t.sleep(pay)
	}
}

// Create implements Store.
func (t *Throttled) Create(name string) (io.WriteCloser, error) {
	w, err := t.Store.Create(name)
	if err != nil {
		return nil, err
	}
	return &throttledWriter{WriteCloser: w, t: t}, nil
}

// Stats wraps a store and counts operations and bytes.
type Stats struct {
	Store
	writes       atomic.Int64
	writtenBytes atomic.Int64
	reads        atomic.Int64
	readBytes    atomic.Int64
	deletes      atomic.Int64
}

// NewStats wraps s with counters.
func NewStats(s Store) *Stats { return &Stats{Store: s} }

// Writes returns the number of completed object writes.
func (s *Stats) Writes() int64 { return s.writes.Load() }

// WrittenBytes returns the total bytes written.
func (s *Stats) WrittenBytes() int64 { return s.writtenBytes.Load() }

// Reads returns the number of opened objects.
func (s *Stats) Reads() int64 { return s.reads.Load() }

// ReadBytes returns the total bytes read.
func (s *Stats) ReadBytes() int64 { return s.readBytes.Load() }

// Deletes returns the number of deletions.
func (s *Stats) Deletes() int64 { return s.deletes.Load() }

type statsWriter struct {
	io.WriteCloser
	s      *Stats
	n      int64
	closed bool
}

func (w *statsWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.n += int64(n)
	return n, err
}

func (w *statsWriter) Close() error {
	err := w.WriteCloser.Close()
	if !w.closed && err == nil {
		w.closed = true
		w.s.writes.Add(1)
		w.s.writtenBytes.Add(w.n)
	}
	return err
}

// Abort forwards the abort; a discarded object is not a completed write.
func (w *statsWriter) Abort() error {
	w.closed = true
	return AbortWriter(w.WriteCloser)
}

// Create implements Store.
func (s *Stats) Create(name string) (io.WriteCloser, error) {
	w, err := s.Store.Create(name)
	if err != nil {
		return nil, err
	}
	return &statsWriter{WriteCloser: w, s: s}, nil
}

type statsReader struct {
	io.ReadCloser
	s *Stats
}

func (r *statsReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.s.readBytes.Add(int64(n))
	return n, err
}

// Open implements Store.
func (s *Stats) Open(name string) (io.ReadCloser, error) {
	r, err := s.Store.Open(name)
	if err != nil {
		return nil, err
	}
	s.reads.Add(1)
	return &statsReader{ReadCloser: r, s: s}, nil
}

// Delete implements Store.
func (s *Stats) Delete(name string) error {
	err := s.Store.Delete(name)
	if err == nil {
		s.deletes.Add(1)
	}
	return err
}
