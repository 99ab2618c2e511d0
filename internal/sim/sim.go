// Package sim is a small deterministic discrete-event simulation engine:
// a virtual clock, an event queue with stable FIFO ordering for
// simultaneous events, and serial resources (bandwidth devices) that
// events queue on. The cluster simulator builds its training/checkpointing
// timelines on top of it.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	now    float64
	seq    uint64
	events eventHeap
}

// New returns an empty simulator at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute time t (>= Now). Events at equal times run
// in scheduling order.
func (s *Sim) At(t float64, fn func()) error {
	if math.IsNaN(t) || t < s.now {
		return fmt.Errorf("sim: schedule at %v before now %v", t, s.now)
	}
	s.seq++
	heap.Push(&s.events, &event{time: t, seq: s.seq, fn: fn})
	return nil
}

// After schedules fn d seconds from now.
func (s *Sim) After(d float64, fn func()) error {
	if d < 0 {
		return fmt.Errorf("sim: negative delay %v", d)
	}
	return s.At(s.now+d, fn)
}

// Step runs the next event; it returns false when the queue is empty.
func (s *Sim) Step() bool {
	if s.events.Len() == 0 {
		return false
	}
	e := heap.Pop(&s.events).(*event)
	s.now = e.time
	e.fn()
	return true
}

// Run executes events until the queue is empty and returns the final time.
func (s *Sim) Run() float64 {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes events with time <= t, then advances the clock to t.
func (s *Sim) RunUntil(t float64) error {
	if t < s.now {
		return fmt.Errorf("sim: RunUntil(%v) before now %v", t, s.now)
	}
	for s.events.Len() > 0 && s.events[0].time <= t {
		s.Step()
	}
	s.now = t
	return nil
}

// Pending returns the number of queued events.
func (s *Sim) Pending() int { return s.events.Len() }

// Clock returns a virtual-time clock: the Unix epoch advanced by the
// simulator's current virtual time. Injecting it into trace.NewWithClock
// or obs.EventLog.WithClock makes span timelines and event timestamps
// record virtual rather than wall time, so simulator-driven runs replay
// byte-identically. (obs.Timer has no clock seam: it times wall-clock
// work only.)
func (s *Sim) Clock() func() time.Time {
	epoch := time.Unix(0, 0).UTC()
	return func() time.Time {
		return epoch.Add(time.Duration(s.now * float64(time.Second)))
	}
}

type event struct {
	time float64
	seq  uint64
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time { //lint:allow floateq exact tie-break: only identical times may fall through to FIFO sequence order

		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Resource is a serial device (an SSD, a PCIe link, a NIC) with a fixed
// bandwidth. Transfers queue FIFO: a transfer submitted at time t starts at
// max(t, device free time) and occupies the device for bytes/bandwidth.
type Resource struct {
	Name        string
	BytesPerSec float64
	freeAt      float64
	busy        float64 // total busy seconds, for utilization accounting
}

// NewResource returns a serial device with the given write bandwidth.
func NewResource(name string, bytesPerSec float64) (*Resource, error) {
	if bytesPerSec <= 0 {
		return nil, fmt.Errorf("sim: resource %q bandwidth %v must be positive", name, bytesPerSec)
	}
	return &Resource{Name: name, BytesPerSec: bytesPerSec}, nil
}

// Submit enqueues a transfer of the given bytes at time now and returns its
// completion time. Transfers are served in submission order.
func (r *Resource) Submit(now, bytes float64) (float64, error) {
	if bytes < 0 {
		return 0, fmt.Errorf("sim: negative transfer size %v", bytes)
	}
	start := now
	if r.freeAt > start {
		start = r.freeAt
	}
	d := bytes / r.BytesPerSec
	r.freeAt = start + d
	r.busy += d
	return r.freeAt, nil
}

// Backlog returns how far beyond now the device is already committed.
func (r *Resource) Backlog(now float64) float64 {
	if r.freeAt <= now {
		return 0
	}
	return r.freeAt - now
}

// BusySeconds returns the total time the device has spent transferring.
func (r *Resource) BusySeconds() float64 { return r.busy }

// Reset clears the device's queue state.
func (r *Resource) Reset() {
	r.freeAt = 0
	r.busy = 0
}
