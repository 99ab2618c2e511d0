// Package obs is the unified observability layer: a named, labeled metric
// registry with deterministic snapshots, Prometheus-text and JSON export
// encoders, an opt-in ops HTTP server (/metrics, /healthz, /snapshot,
// pprof), and a structured JSONL event log for run lifecycle events.
//
// Everything is nil-safe: a nil *Registry hands out nil metric handles
// whose methods are no-ops, and a nil *EventLog drops Emit calls, so
// instrumented code needs no conditionals and pays near-zero cost when
// observability is disabled.
//
// Counter, Gauge and Timer are also the value types the engines, queues
// and data plane embed directly; obs is the repo's one metrics package.
//
// The package is on the lowdifflint determinism allowlist: it never
// iterates a map, and the only clock it reads is the wall clock inside
// Timer.Time (event-log timestamps come from an injected clock), so
// snapshots, the Prometheus text, and the event log are reproducible
// byte-for-byte for a fixed sequence of observations.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric kinds as they appear in snapshots and exports.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Label is one name=value dimension of a metric. Labels are sorted by key
// at registration, so any ordering at the call site names the same series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry is a concurrency-safe, get-or-create collection of named,
// labeled metrics. Metric names are dotted lowercase identifiers
// ("ckpt.diff.bytes"); registering the same name+labels again returns the
// existing instrument. Registering a name under two different kinds, or
// with an invalid name or label key, panics: those are programming errors
// at instrumentation sites, not runtime conditions.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	order   []string          // registry keys, kept sorted (no map iteration)
	kinds   map[string]string // metric name -> kind, across label sets
}

type entry struct {
	name   string
	labels []Label
	kind   string

	c *Counter
	g *Gauge
	h *Histogram

	// Func-backed instruments read an external source at snapshot time
	// (used to mirror pre-existing engine/queue/writer counters without
	// touching their hot paths). Re-registering replaces the function, so
	// per-Run components can re-attach.
	fnCounter func() int64
	fnGauge   func() float64
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{entries: map[string]*entry{}, kinds: map[string]string{}}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	e := r.get(name, KindCounter, labels, false)
	if e == nil {
		return nil
	}
	return e.c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	e := r.get(name, KindGauge, labels, false)
	if e == nil {
		return nil
	}
	return e.g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use (later calls may pass nil
// buckets). Observations above the last bound land in the implicit +Inf
// bucket.
func (r *Registry) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	e := r.get(name, KindHistogram, labels, false)
	if e == nil {
		return nil
	}
	e.h.init(buckets)
	return e.h
}

// FuncCounter registers a counter whose value is read from fn at snapshot
// time. Re-registering the same name+labels replaces the function.
func (r *Registry) FuncCounter(name string, fn func() int64, labels ...Label) {
	if e := r.get(name, KindCounter, labels, true); e != nil {
		r.mu.Lock()
		e.fnCounter = fn
		r.mu.Unlock()
	}
}

// FuncGauge registers a gauge whose value is read from fn at snapshot
// time. Re-registering the same name+labels replaces the function.
func (r *Registry) FuncGauge(name string, fn func() float64, labels ...Label) {
	if e := r.get(name, KindGauge, labels, true); e != nil {
		r.mu.Lock()
		e.fnGauge = fn
		r.mu.Unlock()
	}
}

// get looks up or creates the entry for name+labels. A nil registry
// returns nil so handle methods degrade to no-ops.
func (r *Registry) get(name, kind string, labels []Label, funcBacked bool) *entry {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q (want dotted lowercase [a-z0-9_.] segments)", name))
	}
	labels = normalizeLabels(name, labels)
	k := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[k]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, e.kind, kind))
		}
		if funcBacked != (e.fnCounter != nil || e.fnGauge != nil) {
			panic(fmt.Sprintf("obs: metric %q mixes owned and func-backed registration", name))
		}
		return e
	}
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s", name, prev, kind))
	}
	e := &entry{name: name, labels: labels, kind: kind}
	if !funcBacked {
		switch kind {
		case KindCounter:
			e.c = &Counter{}
		case KindGauge:
			e.g = &Gauge{}
		case KindHistogram:
			e.h = &Histogram{}
		}
	}
	r.entries[k] = e
	r.kinds[name] = kind
	i := sort.SearchStrings(r.order, k)
	r.order = append(r.order, "")
	copy(r.order[i+1:], r.order[i:])
	r.order[i] = k
	return e
}

// validName accepts dotted lowercase identifiers: non-empty [a-z0-9_]
// segments separated by single dots, starting with a letter.
func validName(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' {
		return false
	}
	prevDot := true // guards leading/double dots via the segment check
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c == '.':
			if prevDot {
				return false
			}
			prevDot = true
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			prevDot = false
		default:
			return false
		}
	}
	return !prevDot
}

// normalizeLabels validates keys, sorts by key, and rejects duplicates.
func normalizeLabels(name string, labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	for i, l := range out {
		if !validName(l.Key) || strings.Contains(l.Key, ".") {
			panic(fmt.Sprintf("obs: metric %q has invalid label key %q", name, l.Key))
		}
		if i > 0 && out[i-1].Key == l.Key {
			panic(fmt.Sprintf("obs: metric %q has duplicate label key %q", name, l.Key))
		}
	}
	return out
}

// seriesKey is the registry key: name then label pairs, separated by
// bytes that sort below any identifier character so snapshot order is
// name-major, then label-lexicographic.
func seriesKey(name string, labels []Label) string {
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
	}
	return b.String()
}

// Counter is a monotonically increasing, concurrency-safe counter. It is a
// value type: components embed one as a field, and the registry hands out
// pointers to the ones it owns. Methods on a nil *Counter (from a nil
// registry) are no-ops.
type Counter struct{ v atomic.Int64 }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Add increments the counter by n (n must be >= 0 to stay monotonic).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a concurrency-safe instantaneous value with a high-water mark.
// Like Counter it is a value type; nil handles are safe no-ops.
type Gauge struct {
	mu      sync.Mutex
	v, high int64
}

// Set replaces the gauge value, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.high = max(g.high, v)
	g.mu.Unlock()
}

// Add adjusts the gauge by delta, updating the high-water mark.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v += delta
	g.high = max(g.high, g.v)
	g.mu.Unlock()
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// High returns the high-water mark (0 on a nil handle).
func (g *Gauge) High() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.high
}

// Timer accumulates wall-clock durations: a count and a total. It is a
// value type with no registry kind — components that time something keep
// a Timer field and export it through FuncCounter/FuncGauge. Nil handles
// are safe no-ops; Time still runs the function.
type Timer struct{ nanos, count atomic.Int64 }

// Observe adds one duration sample.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.nanos.Add(int64(d))
		t.count.Add(1)
	}
}

// Time runs fn and records how long it took on the wall clock.
func (t *Timer) Time(fn func()) {
	if t == nil {
		fn()
		return
	}
	now := time.Now
	start := now()
	fn()
	t.Observe(now().Sub(start))
}

// Count returns the number of samples (0 on a nil handle).
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated duration (0 on a nil handle).
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.nanos.Load())
}

// Histogram counts observations into fixed ascending buckets (Prometheus
// le semantics: bucket i counts v <= bound i; an implicit +Inf bucket
// catches the rest). Nil handles are safe no-ops.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1; last is the +Inf overflow bucket
	count  int64
	sum    float64
}

// DefBuckets is a general-purpose latency bucket ladder in seconds.
var DefBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

func (h *Histogram) init(buckets []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts != nil || buckets == nil {
		return
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not ascending at %d: %v", i, buckets))
		}
	}
	h.bounds = append([]float64(nil), buckets...)
	h.counts = make([]int64, len(h.bounds)+1)
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.counts == nil { // registered with nil buckets: default ladder
		h.bounds = append([]float64(nil), DefBuckets...)
		h.counts = make([]int64, len(h.bounds)+1)
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count returns the number of samples (0 on a nil handle).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	LE    float64 `json:"le"` // upper bound; +Inf for the overflow bucket
	Count int64   `json:"count"`
}

// Metric is one instrument's state in a snapshot.
type Metric struct {
	Name    string   `json:"name"`
	Labels  []Label  `json:"labels,omitempty"`
	Kind    string   `json:"kind"`
	Value   float64  `json:"value"`             // counter/gauge current value
	High    float64  `json:"high,omitempty"`    // gauge high-water mark
	Count   int64    `json:"count,omitempty"`   // histogram samples
	Sum     float64  `json:"sum,omitempty"`     // histogram sum
	Buckets []Bucket `json:"buckets,omitempty"` // histogram, cumulative
}

// Snapshot is a deterministic point-in-time view of a registry: metrics
// sorted by name then labels, ready for JSON or Prometheus encoding.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every registered metric in deterministic order. A nil
// registry yields an empty (but non-nil) metric list.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Metrics: []Metric{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	keys := append([]string(nil), r.order...)
	entries := make([]*entry, len(keys))
	// Func pointers are copied under the lock (re-registration replaces
	// them) but called after release, so a func may itself use the registry.
	fnCounters := make([]func() int64, len(keys))
	fnGauges := make([]func() float64, len(keys))
	for i, k := range keys {
		e := r.entries[k]
		entries[i] = e
		fnCounters[i] = e.fnCounter
		fnGauges[i] = e.fnGauge
	}
	r.mu.Unlock()
	for i, e := range entries {
		m := Metric{Name: e.name, Labels: e.labels, Kind: e.kind}
		switch {
		case fnCounters[i] != nil:
			m.Value = float64(fnCounters[i]())
		case fnGauges[i] != nil:
			m.Value = fnGauges[i]()
		case e.c != nil:
			m.Value = float64(e.c.Value())
		case e.g != nil:
			m.Value = float64(e.g.Value())
			m.High = float64(e.g.High())
		case e.h != nil:
			e.h.mu.Lock()
			m.Count = e.h.count
			m.Sum = e.h.sum
			cum := int64(0)
			for i, c := range e.h.counts {
				cum += c
				le := inf
				if i < len(e.h.bounds) {
					le = e.h.bounds[i]
				}
				m.Buckets = append(m.Buckets, Bucket{LE: le, Count: cum})
			}
			e.h.mu.Unlock()
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}
