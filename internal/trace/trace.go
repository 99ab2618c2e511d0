// Package trace records execution timelines of the functional engines —
// iteration compute, gradient sync, queue hand-offs, batched writes, full
// snapshots — and exports them in the Chrome trace-event JSON format
// (load in chrome://tracing or https://ui.perfetto.dev) so the overlap
// behaviour the paper argues about is directly visible. On top of the
// raw recorder, BuildProfile folds spans into per-iteration phase
// breakdowns, critical paths, and overlap-gap reports (profile.go).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Event is one completed span on a named track.
type Event struct {
	Track string        // e.g. "train", "checkpoint", "persist"
	Name  string        // e.g. "iteration", "allgather", "diff-write"
	Start time.Duration // offset from the recorder's epoch
	Dur   time.Duration
	Seq   uint64                 // insertion sequence; final ordering tie-break
	Args  map[string]interface{} // optional details (iteration, bytes, ...)
}

// Recorder collects events concurrently. The zero value is not usable;
// call New. A nil *Recorder is safe to use and records nothing, so
// instrumented code does not need nil checks.
type Recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	now      func() time.Time
	events   []Event
	cap      int // 0 = unbounded; otherwise events is a ring of this size
	head     int // oldest slot when the ring is full
	seq      uint64
	dropped  int64
	observer func(Event)
}

// New returns an empty recorder on the wall clock, with its epoch at now.
func New() *Recorder {
	return NewWithClock(time.Now)
}

// NewWithClock returns an empty recorder reading time from now (nil uses
// time.Now). Injecting a virtual or fixed-instant clock makes the
// recorded timeline, and the Chrome trace encoded from it, deterministic:
// spans land at virtual offsets instead of wall time.
func NewWithClock(now func() time.Time) *Recorder {
	if now == nil {
		now = time.Now
	}
	return &Recorder{epoch: now(), now: now}
}

// SetCap bounds the recorder to the newest n events (0 restores the
// unbounded default). Once full, each new span evicts the oldest one and
// bumps the Dropped counter, so long runs hold a sliding window instead
// of growing without limit. If more than n events are already recorded,
// the oldest overflow is evicted immediately.
func (r *Recorder) SetCap(n int) {
	if r == nil || n < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	evs := r.snapshotLocked()
	if n > 0 && len(evs) > n {
		r.dropped += int64(len(evs) - n)
		evs = evs[len(evs)-n:]
	}
	r.cap = n
	r.head = 0
	r.events = append([]Event(nil), evs...)
}

// Dropped returns the number of events evicted by the ring-buffer cap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// SetObserver installs a hook called once per recorded span, outside the
// recorder lock. The obs wiring uses it to feed per-phase histograms
// without the recorder depending on the metrics registry. Pass nil to
// remove the hook. The hook must be safe for concurrent calls.
func (r *Recorder) SetObserver(fn func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.observer = fn
	r.mu.Unlock()
}

// Span records a completed span that started at start and ended now.
func (r *Recorder) Span(track, name string, start time.Time, args map[string]interface{}) {
	if r == nil {
		return
	}
	now := r.now()
	r.mu.Lock()
	r.seq++
	e := Event{
		Track: track,
		Name:  name,
		Start: start.Sub(r.epoch),
		Dur:   now.Sub(start),
		Seq:   r.seq,
		Args:  args,
	}
	if r.cap > 0 && len(r.events) >= r.cap {
		r.events[r.head] = e
		r.head++
		if r.head == len(r.events) {
			r.head = 0
		}
		r.dropped++
	} else {
		r.events = append(r.events, e)
	}
	obs := r.observer
	r.mu.Unlock()
	if obs != nil {
		obs(e)
	}
}

// Begin returns a closure that completes the span when called; it makes
// call sites one line: defer rec.Begin("train", "iteration", args)().
func (r *Recorder) Begin(track, name string, args map[string]interface{}) func() {
	if r == nil {
		return func() {}
	}
	start := r.now()
	return func() { r.Span(track, name, start, args) }
}

// Begin1 is Begin with a single integer argument. Building the args map
// lazily inside the span closure keeps a disabled recorder's fast path
// (r == nil — the common case in production step loops) allocation-free.
func (r *Recorder) Begin1(track, name, key string, v int64) func() {
	if r == nil {
		return func() {}
	}
	start := r.now()
	return func() { r.Span(track, name, start, map[string]interface{}{key: v}) }
}

// Begin2 is Begin with two integer arguments, with the same lazy-map,
// nil-is-free contract as Begin1.
func (r *Recorder) Begin2(track, name, k1 string, v1 int64, k2 string, v2 int64) func() {
	if r == nil {
		return func() {}
	}
	start := r.now()
	return func() { r.Span(track, name, start, map[string]interface{}{k1: v1, k2: v2}) }
}

// snapshotLocked returns the retained events in insertion order,
// unwinding the ring when it has wrapped. Callers must hold r.mu.
func (r *Recorder) snapshotLocked() []Event {
	if r.cap > 0 && len(r.events) == r.cap && r.head != 0 {
		out := make([]Event, 0, len(r.events))
		out = append(out, r.events[r.head:]...)
		out = append(out, r.events[:r.head]...)
		return out
	}
	return append([]Event(nil), r.events...)
}

// Events returns a copy of the recorded events in deterministic order:
// by start time, then track, then name, then insertion sequence. The
// sequence tie-break pins concurrent same-key spans, so two runs that
// produce the same timeline serialize identically.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := r.snapshotLocked()
	r.mu.Unlock()
	SortEvents(out)
	return out
}

// SortEvents orders events by (Start, Track, Name, Seq) — the canonical
// ordering Events, WriteChromeTrace, and the profile reports all share.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Seq < b.Seq
	})
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// TrackTotals sums span durations per track.
func (r *Recorder) TrackTotals() map[string]time.Duration {
	totals := map[string]time.Duration{}
	for _, e := range r.Events() {
		totals[e.Track] += e.Dur
	}
	return totals
}

// chromeEvent is the trace-event JSON shape ("X" = complete event).
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	TS   int64                  `json:"ts"`  // microseconds
	Dur  int64                  `json:"dur"` // microseconds
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// WriteChromeTrace writes the events as a Chrome trace-event JSON array.
// Tracks map to thread IDs so each renders as its own row.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, r.Events())
}

// WriteChromeTrace encodes already-collected events (e.g. loaded from a
// JSONL file) as a Chrome trace-event JSON array.
func WriteChromeTrace(w io.Writer, events []Event) error {
	trackIDs := map[string]int{}
	var ordered []string
	for _, e := range events {
		if _, ok := trackIDs[e.Track]; !ok {
			trackIDs[e.Track] = len(trackIDs) + 1
			ordered = append(ordered, e.Track)
		}
	}
	out := make([]chromeEvent, 0, len(events)+len(ordered))
	// Thread-name metadata rows keep track names visible in the viewer.
	for _, track := range ordered {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: trackIDs[track],
			Args: map[string]interface{}{"name": track},
		})
	}
	for _, e := range events {
		out = append(out, chromeEvent{
			Name: e.Name,
			Cat:  e.Track,
			Ph:   "X",
			TS:   e.Start.Microseconds(),
			Dur:  maxI64(1, e.Dur.Microseconds()),
			PID:  1,
			TID:  trackIDs[e.Track],
			Args: e.Args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Summary renders per-track totals for logs. Tracks come out in sorted
// order, derived from the (already deterministic) event list rather than
// by ranging a map.
func (r *Recorder) Summary() string {
	events := r.Events()
	var tracks []string
	totals := map[string]time.Duration{}
	for _, e := range events {
		if _, ok := totals[e.Track]; !ok {
			tracks = append(tracks, e.Track)
		}
		totals[e.Track] += e.Dur
	}
	sort.Strings(tracks)
	s := ""
	for _, t := range tracks {
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%s=%s", t, totals[t].Round(time.Microsecond))
	}
	return s
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
