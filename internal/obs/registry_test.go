package obs

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("Value = %d", g.Value())
	}
	if g.High() != 5 {
		t.Fatalf("High = %d", g.High())
	}
	g.Add(10)
	if g.High() != 13 {
		t.Fatalf("High = %d", g.High())
	}
}

func TestTimer(t *testing.T) {
	var tm Timer
	tm.Observe(10 * time.Millisecond)
	tm.Observe(30 * time.Millisecond)
	if tm.Count() != 2 {
		t.Fatalf("Count = %d", tm.Count())
	}
	if tm.Total() != 40*time.Millisecond {
		t.Fatalf("Total = %v", tm.Total())
	}
	tm.Time(func() { time.Sleep(time.Millisecond) })
	if tm.Count() != 3 || tm.Total() < 41*time.Millisecond {
		t.Fatalf("after Time: count=%d total=%v", tm.Count(), tm.Total())
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	r.Counter("a.b").Inc()
	r.Counter("a.b").Add(3)
	r.Gauge("a.g").Set(7)
	r.Gauge("a.g").Add(1)
	var tm *Timer
	tm.Observe(time.Second)
	ran := false
	tm.Time(func() { ran = true })
	if !ran || tm.Count() != 0 || tm.Total() != 0 {
		t.Fatal("nil Timer.Time must still run the function and record nothing")
	}
	r.Histogram("a.h", nil).Observe(1)
	r.FuncCounter("a.f", func() int64 { return 1 })
	r.FuncGauge("a.fg", func() float64 { return 1 })
	snap := r.Snapshot()
	if snap.Metrics == nil || len(snap.Metrics) != 0 {
		t.Fatalf("nil registry snapshot = %+v, want empty non-nil", snap.Metrics)
	}
}

func TestGetOrCreateReturnsSameInstrument(t *testing.T) {
	r := New()
	c1 := r.Counter("ckpt.diff.writes")
	c1.Inc()
	c2 := r.Counter("ckpt.diff.writes")
	if c1 != c2 {
		t.Fatal("same name should return the same counter")
	}
	if c2.Value() != 1 {
		t.Fatalf("Value = %d", c2.Value())
	}
	// Different label values are different series.
	l1 := r.Counter("ckpt.diff.writes", L("worker", "0"))
	l2 := r.Counter("ckpt.diff.writes", L("worker", "1"))
	if l1 == l2 || l1 == c1 {
		t.Fatal("distinct label sets must be distinct series")
	}
	// Label order does not matter.
	a := r.Gauge("q.depth", L("a", "1"), L("b", "2"))
	b := r.Gauge("q.depth", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order should not create a new series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("x.y")
	mustPanic(t, "kind mismatch same series", func() { r.Gauge("x.y") })
	r.Counter("z.w", L("k", "v"))
	mustPanic(t, "kind mismatch across label sets", func() { r.Gauge("z.w", L("k", "other")) })
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, name := range []string{"", "Upper", "1abc", "a..b", ".a", "a.", "a b", "a-b"} {
		name := name
		mustPanic(t, "name "+name, func() { r.Counter(name) })
	}
	for _, name := range []string{"a", "a.b", "ckpt.diff.bytes", "x_1.y_2"} {
		r.Counter(name) // must not panic
	}
}

func TestInvalidLabelsPanic(t *testing.T) {
	r := New()
	mustPanic(t, "dotted label key", func() { r.Counter("a.b", L("k.x", "v")) })
	mustPanic(t, "empty label key", func() { r.Counter("a.c", L("", "v")) })
	mustPanic(t, "duplicate label key", func() { r.Counter("a.d", L("k", "1"), L("k", "2")) })
}

func TestFuncOwnedMixPanics(t *testing.T) {
	r := New()
	r.Counter("owned.c")
	mustPanic(t, "owned then func", func() { r.FuncCounter("owned.c", func() int64 { return 0 }) })
	r.FuncGauge("fn.g", func() float64 { return 0 })
	mustPanic(t, "func then owned", func() { r.Gauge("fn.g") })
}

func TestFuncReRegistrationReplaces(t *testing.T) {
	r := New()
	r.FuncCounter("engine.c", func() int64 { return 1 })
	r.FuncCounter("engine.c", func() int64 { return 42 })
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 || snap.Metrics[0].Value != 42 {
		t.Fatalf("snapshot = %+v, want single metric valued 42", snap.Metrics)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func(names []string) Snapshot {
		r := New()
		for _, n := range names {
			r.Counter(n).Inc()
		}
		r.Gauge("g.depth", L("q", "b")).Set(2)
		r.Gauge("g.depth", L("q", "a")).Set(1)
		return r.Snapshot()
	}
	a := build([]string{"z.last", "a.first", "m.middle"})
	b := build([]string{"m.middle", "z.last", "a.first"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ by registration order:\n%+v\nvs\n%+v", a, b)
	}
	var got []string
	for _, m := range a.Metrics {
		got = append(got, m.Name)
	}
	want := []string{"a.first", "g.depth", "g.depth", "m.middle", "z.last"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	// Label-sorted within a name.
	if a.Metrics[1].Labels[0].Value != "a" || a.Metrics[2].Labels[0].Value != "b" {
		t.Fatalf("label order = %+v", a.Metrics[1:3])
	}
}

func TestSnapshotValues(t *testing.T) {
	r := New()
	r.Counter("c.v").Add(5)
	g := r.Gauge("g.v")
	g.Set(9)
	g.Set(4)
	h := r.Histogram("h.v", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	snap := r.Snapshot()
	byName := map[string]Metric{}
	for _, m := range snap.Metrics {
		byName[m.Name] = m
	}
	if m := byName["c.v"]; m.Kind != KindCounter || m.Value != 5 {
		t.Fatalf("counter = %+v", m)
	}
	if m := byName["g.v"]; m.Value != 4 || m.High != 9 {
		t.Fatalf("gauge = %+v", m)
	}
	m := byName["h.v"]
	if m.Count != 3 || m.Sum != 105.5 {
		t.Fatalf("histogram = %+v", m)
	}
	// Cumulative le buckets: <=1: 1, <=10: 2, +Inf: 3.
	want := []Bucket{{LE: 1, Count: 1}, {LE: 10, Count: 2}, {LE: inf, Count: 3}}
	if !reflect.DeepEqual(m.Buckets, want) {
		t.Fatalf("buckets = %+v, want %+v", m.Buckets, want)
	}
}

func TestHistogramDefaultBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat.h", nil)
	h.Observe(0.05)
	snap := r.Snapshot()
	if got := len(snap.Metrics[0].Buckets); got != len(DefBuckets)+1 {
		t.Fatalf("got %d buckets, want %d", got, len(DefBuckets)+1)
	}
	mustPanic(t, "non-ascending buckets", func() { r.Histogram("bad.h", []float64{2, 1}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}
