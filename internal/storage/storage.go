// Package storage provides the checkpoint stores the paper persists to:
// an in-memory store (Gemini-style CPU-memory checkpoints and tests), a
// file store with atomic create (local SSD), a memory-over-disk tiered
// store and a remote client of the lowdiffd pool, plus wrappers built on
// one Interposer: a bandwidth-throttled one that emulates a storage device
// of a given write bandwidth, a per-operation latency, a stats counter and
// the seeded Chaos fault injector.
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
	data, err := io.ReadAll(r)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// CheckName is the one object-name rule of every store: a name is not
// empty, ".", or "..", holds no path separator, and does not contain
// ".tmp." — the infix File stages uncommitted objects under and its List
// hides, so such an object could be written but never listed.
func CheckName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, `/\`) || strings.Contains(name, ".tmp.") {
		return fmt.Errorf("storage: invalid object name %q", name)
	}
	return nil
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

// presizer is a writer that can be told the object's length ahead of the
// first Write (ChunkList.Commit does); the interposer's writer forwards it.
type presizer interface{ presize(n int64) }

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

// adopt returns the bytes a memWriter committed as an object to keep: a
// buffer that ended exactly full as it is, one with growth slack copied, so
// the slack is not kept for the object's life.
func adopt(data []byte) []byte {
	if len(data) != cap(data) {
		return append([]byte(nil), data...)
	}
	return data
}

// Abort discards the staged bytes; nothing becomes visible.
func (w *memWriter) Abort() error {
	w.closed = true
	w.buf, w.pieces = nil, nil
	return nil
}

// Create implements Store.
func (m *Mem) Create(name string) (io.WriteCloser, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return &memWriter{commit: func(data []byte) {
		data = adopt(data)
		m.mu.Lock()
		m.objects[name] = data
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

// path maps an object name to a file path, rejecting path escapes and
// staging names.
func (f *File) path(name string) (string, error) {
	if err := CheckName(name); err != nil {
		return "", err
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
