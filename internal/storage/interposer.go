package storage

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Interposer is a Store wrapped in optional hooks: the one skeleton under
// this package's wrappers (Chaos, Latency, Throttled, Stats) and under the
// tests' gated, failing and recording stores. A nil hook passes its
// operation straight through; without a Writer hook Create returns the
// inner store's own writer, and without a Reader hook Open its reader.
type Interposer struct {
	Store
	// Op runs every operation — "create", "open", "list", "delete" or
	// "size" — on name (the prefix, for list). call performs it on the
	// inner store, through the Writer or Reader hook. The hook may sleep or
	// fail the operation before calling it, or look at its outcome after;
	// it returns call's error or fails without calling it.
	Op func(op, name string, call func() error) error
	// Writer makes the writer a Create hands out; create makes the inner
	// store's. WriteHooks.Wrap is the writer for a hook that only watches.
	Writer func(name string, create func() (io.WriteCloser, error)) (io.WriteCloser, error)
	// Reader makes the reader an Open hands out; open opens the inner
	// store's.
	Reader func(name string, open func() (io.ReadCloser, error)) (io.ReadCloser, error)
}

func (s *Interposer) do(op, name string, call func() error) error {
	if s.Op == nil {
		return call()
	}
	return s.Op(op, name, call)
}

// Create implements Store.
func (s *Interposer) Create(name string) (w io.WriteCloser, err error) {
	create := func() (io.WriteCloser, error) { return s.Store.Create(name) }
	err = s.do("create", name, func() error {
		if s.Writer == nil {
			w, err = create()
		} else {
			w, err = s.Writer(name, create)
		}
		return err
	})
	return w, err
}

// Open implements Store.
func (s *Interposer) Open(name string) (r io.ReadCloser, err error) {
	open := func() (io.ReadCloser, error) { return s.Store.Open(name) }
	err = s.do("open", name, func() error {
		if s.Reader == nil {
			r, err = open()
		} else {
			r, err = s.Reader(name, open)
		}
		return err
	})
	return r, err
}

// List implements Store.
func (s *Interposer) List(prefix string) (names []string, err error) {
	err = s.do("list", prefix, func() error {
		names, err = s.Store.List(prefix)
		return err
	})
	return names, err
}

// Delete implements Store.
func (s *Interposer) Delete(name string) error {
	return s.do("delete", name, func() error { return s.Store.Delete(name) })
}

// Size implements Store.
func (s *Interposer) Size(name string) (n int64, err error) {
	err = s.do("size", name, func() error {
		n, err = s.Store.Size(name)
		return err
	})
	return n, err
}

// WriteHooks are the callbacks of the interposer's one writer type, which
// forwards every call, Abort and the pre-size hint to the writer it wraps.
type WriteHooks struct {
	// Write sees the bytes each Write handed on.
	Write func(p []byte)
	// Closing runs before the first Close or Abort reaches the inner writer.
	Closing func()
	// Closed runs right after it, with whether the object was committed.
	Closed func(committed bool)
}

// Wrap returns w with the hooks around it; a Create error passes through.
func (h WriteHooks) Wrap(w io.WriteCloser, err error) (io.WriteCloser, error) {
	if err != nil {
		return nil, err
	}
	return &hookWriter{WriteCloser: w, h: h}, nil
}

type hookWriter struct {
	io.WriteCloser
	h       WriteHooks
	settled bool
}

func (w *hookWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	if n > 0 && w.h.Write != nil {
		w.h.Write(p[:n])
	}
	return n, err
}

func (w *hookWriter) Close() error { return w.settle(true) }

func (w *hookWriter) Abort() error { return w.settle(false) }

// settle closes or aborts the inner writer, calling the hooks around the
// first of those only.
func (w *hookWriter) settle(commit bool) error {
	first := !w.settled
	w.settled = true
	if first && w.h.Closing != nil {
		w.h.Closing()
	}
	var err error
	if commit {
		err = w.WriteCloser.Close()
	} else {
		err = AbortWriter(w.WriteCloser)
	}
	if first && w.h.Closed != nil {
		w.h.Closed(commit && err == nil)
	}
	return err
}

func (w *hookWriter) presize(n int64) {
	if p, ok := w.WriteCloser.(presizer); ok {
		p.presize(n)
	}
}

// Latency wraps a store with a fixed per-operation latency on top of the
// wrapped store's own behaviour, modelling remote checkpoint storage (the
// paper persists "to local or remote storage"): every Create/Open/Delete
// pays a round trip. Compose with Throttled for a bandwidth-limited remote:
//
//	remote, _ := storage.NewLatency(throttled, 2*time.Millisecond)
type Latency struct {
	Interposer
	rtt   time.Duration
	sleep func(time.Duration) // test seam
	ops   atomic.Int64
}

// NewLatency wraps s with a per-operation round-trip time.
func NewLatency(s Store, rtt time.Duration) (*Latency, error) {
	if rtt < 0 {
		return nil, fmt.Errorf("storage: negative latency %v", rtt)
	}
	l := &Latency{rtt: rtt, sleep: time.Sleep}
	l.Interposer = Interposer{Store: s, Op: func(op, _ string, call func() error) error {
		if op == "create" || op == "open" || op == "delete" {
			l.ops.Add(1)
			if l.rtt > 0 {
				l.sleep(l.rtt)
			}
		}
		return call()
	}}
	return l, nil
}

// Ops returns the number of latency-charged operations.
func (l *Latency) Ops() int64 { return l.ops.Load() }

// Throttled wraps a store and limits write throughput to emulate a storage
// device of a given bandwidth (e.g. an SSD or a 25 Gbps remote link). Reads
// are not throttled; checkpoint writes are the contended path the paper
// studies.
type Throttled struct {
	Interposer
	bytesPerSec float64
	sleep       func(time.Duration) // test seam
	mu          sync.Mutex
	debt        time.Duration
}

// NewThrottled wraps s with a write-bandwidth limit in bytes/second.
// Sub-millisecond debts batch to avoid timer churn, and closing or aborting
// a writer settles whatever is owed: the bytes crossed the emulated device
// either way, and a workload of short objects would otherwise write faster
// than the configured bandwidth.
func NewThrottled(s Store, bytesPerSec float64) (*Throttled, error) {
	if !(bytesPerSec > 0) { // NaN fails it
		return nil, fmt.Errorf("storage: throttle bandwidth %v must be positive", bytesPerSec)
	}
	t := &Throttled{bytesPerSec: bytesPerSec, sleep: time.Sleep}
	hooks := WriteHooks{
		Write: func(p []byte) {
			t.pay(time.Duration(float64(len(p))/bytesPerSec*float64(time.Second)), time.Millisecond)
		},
		Closing: func() { t.pay(0, 0) },
	}
	t.Interposer = Interposer{Store: s, Writer: func(_ string, create func() (io.WriteCloser, error)) (io.WriteCloser, error) {
		return hooks.Wrap(create())
	}}
	return t, nil
}

// pay adds d to the debt and sleeps the whole debt off once it reaches due.
func (t *Throttled) pay(d, due time.Duration) {
	t.mu.Lock()
	t.debt += d
	var owed time.Duration
	if t.debt >= due {
		owed, t.debt = t.debt, 0
	}
	t.mu.Unlock()
	if owed > 0 {
		t.sleep(owed)
	}
}

// Stats wraps a store and counts committed object writes.
type Stats struct {
	Interposer
	writes atomic.Int64
}

// NewStats wraps s with a counter.
func NewStats(s Store) *Stats {
	st := &Stats{}
	st.Interposer = Interposer{Store: s, Writer: func(_ string, create func() (io.WriteCloser, error)) (io.WriteCloser, error) {
		return WriteHooks{Closed: func(committed bool) {
			if committed {
				st.writes.Add(1)
			}
		}}.Wrap(create())
	}}
	return st
}

// Writes returns the number of committed object writes.
func (s *Stats) Writes() int64 { return s.writes.Load() }
