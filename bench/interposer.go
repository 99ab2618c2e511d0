package main

import (
	"io"
	"strings"
	"sync"
	"time"

	"lowdiff/internal/storage"
	"lowdiff/internal/trace"
)

// An op is one store operation as the interposer saw it from outside.
type op struct {
	kind  string // write, read, list, delete or size
	name  string
	start time.Time
	end   time.Time
	// A write is split into the Create call, the Write calls and Close,
	// which on a Remote store are the CREATE, DATA and COMMIT round trips.
	create time.Duration
	data   time.Duration
	bytes  int64
	failed bool
}

func (o op) total() time.Duration  { return o.end.Sub(o.start) }
func (o op) commit() time.Duration { return o.total() - o.create - o.data }

// interposer wraps a Store and records every operation that crosses it.
// With a recorder it also emits one span per operation on track
// "bench.<role>", so the harness's view of a layer boundary lands on the
// same timeline as the program's own spans.
type interposer struct {
	inner storage.Store
	role  string
	rec   *trace.Recorder

	mu  sync.Mutex
	ops []op
}

func interpose(s storage.Store, role string, rec *trace.Recorder) *interposer {
	return &interposer{inner: s, role: role, rec: rec}
}

func (p *interposer) record(o op) {
	o.end = time.Now()
	p.mu.Lock()
	p.ops = append(p.ops, o)
	p.mu.Unlock()
	if p.rec != nil {
		p.rec.Span("bench."+p.role, o.kind, o.start, map[string]interface{}{
			"name": o.name, "bytes": o.bytes, "failed": o.failed,
		})
	}
}

// take returns the operations recorded so far and forgets them.
func (p *interposer) take() []op {
	p.mu.Lock()
	defer p.mu.Unlock()
	ops := p.ops
	p.ops = nil
	return ops
}

func (p *interposer) Create(name string) (io.WriteCloser, error) {
	o := op{kind: "write", name: name, start: time.Now()}
	w, err := p.inner.Create(name)
	o.create = time.Since(o.start)
	if err != nil {
		o.failed = true
		p.record(o)
		return nil, err
	}
	return &spanWriter{p: p, w: w, o: o}, nil
}

type spanWriter struct {
	p *interposer
	w io.WriteCloser
	o op
}

func (s *spanWriter) Write(b []byte) (int, error) {
	t0 := time.Now()
	n, err := s.w.Write(b)
	s.o.data += time.Since(t0)
	s.o.bytes += int64(n)
	if err != nil {
		s.o.failed = true
	}
	return n, err
}

func (s *spanWriter) Close() error {
	err := s.w.Close()
	if err != nil {
		s.o.failed = true
	}
	s.p.record(s.o)
	return err
}

// Abort keeps storage.AbortWriter working through the wrapper. An aborted
// write committed nothing, so it is recorded as failed.
func (s *spanWriter) Abort() error {
	err := storage.AbortWriter(s.w)
	s.o.failed = true
	s.p.record(s.o)
	return err
}

func (p *interposer) Open(name string) (io.ReadCloser, error) {
	o := op{kind: "read", name: name, start: time.Now()}
	r, err := p.inner.Open(name)
	if err != nil {
		o.failed = true
		p.record(o)
		return nil, err
	}
	return &spanReader{p: p, r: r, o: o}, nil
}

type spanReader struct {
	p *interposer
	r io.ReadCloser
	o op
}

func (s *spanReader) Read(b []byte) (int, error) {
	n, err := s.r.Read(b)
	s.o.bytes += int64(n)
	if err != nil && err != io.EOF {
		s.o.failed = true
	}
	return n, err
}

func (s *spanReader) Close() error {
	err := s.r.Close()
	s.p.record(s.o)
	return err
}

func (p *interposer) List(prefix string) ([]string, error) {
	o := op{kind: "list", name: prefix, start: time.Now()}
	names, err := p.inner.List(prefix)
	o.failed = err != nil
	p.record(o)
	return names, err
}

func (p *interposer) Delete(name string) error {
	o := op{kind: "delete", name: name, start: time.Now()}
	err := p.inner.Delete(name)
	o.failed = err != nil && !storage.IsNotExist(err)
	p.record(o)
	return err
}

func (p *interposer) Size(name string) (int64, error) {
	o := op{kind: "size", name: name, start: time.Now()}
	n, err := p.inner.Size(name)
	o.failed = err != nil && !storage.IsNotExist(err)
	p.record(o)
	return n, err
}

// opStats folds the operations of one kind (and, when prefix is set, one
// object-name prefix such as "diff-" or "full-") into the few numbers the
// metrics are built from.
type opStats struct {
	n      int
	failed int
	bytes  int64
	totals []float64 // whole-operation latency, ms
	starts []time.Time
	create []float64 // writes only: Create call, ms
	data   []float64 // writes only: all Write calls, ms
	commit []float64 // writes only: Close, ms
}

func fold(ops []op, kind, prefix string) opStats {
	var s opStats
	for _, o := range ops {
		if o.kind != kind || !strings.HasPrefix(o.name, prefix) {
			continue
		}
		s.n++
		if o.failed {
			s.failed++
			continue
		}
		s.bytes += o.bytes
		s.totals = append(s.totals, ms(o.total()))
		s.starts = append(s.starts, o.start)
		if kind == "write" {
			s.create = append(s.create, ms(o.create))
			s.data = append(s.data, ms(o.data))
			s.commit = append(s.commit, ms(o.commit()))
		}
	}
	return s
}

func countFailed(ops []op) (attempted, failed int64) {
	for _, o := range ops {
		attempted++
		if o.failed {
			failed++
		}
	}
	return attempted, failed
}
