package obs

import (
	"io"
	"testing"
	"time"
)

// The hot-path costs that matter for instrumenting a training loop: handle
// operations must be cheap enough to sit inside the iteration, and the
// scrape-path encoders must not stall the engine.

func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("bench.counter")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := New().Gauge("bench.gauge")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(int64(i))
	}
}

func BenchmarkTimerObserve(b *testing.B) {
	var t Timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Observe(time.Microsecond)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := New().Histogram("bench.hist", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 100))
	}
}

// BenchmarkHandleLookup measures the get-or-create path with an existing
// series — the cost of calling r.Counter(name) each time instead of caching
// the handle.
func BenchmarkHandleLookup(b *testing.B) {
	r := New()
	r.Counter("bench.lookup", L("worker", "0"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Counter("bench.lookup", L("worker", "0")).Inc()
	}
}

func benchRegistry() *Registry {
	r := New()
	for _, name := range []string{
		"ckpt.diff.writes", "ckpt.diff.bytes", "ckpt.full.writes",
		"fault.diff_failures", "fault.degradations", "queue.puts", "queue.gets",
	} {
		r.Counter(name).Add(12345)
	}
	for _, name := range []string{"engine.iter", "queue.depth", "engine.health"} {
		r.Gauge(name).Set(42)
	}
	r.Histogram("snapshot.write_seconds", DefBuckets).Observe(0.25)
	h := r.Histogram("persist.latency", nil)
	for i := 0; i < 64; i++ {
		h.Observe(float64(i) / 100)
	}
	return r
}

func BenchmarkSnapshot(b *testing.B) {
	r := benchRegistry()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	snap := benchRegistry().Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snap.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteJSON(b *testing.B) {
	snap := benchRegistry().Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := snap.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventLogEmit(b *testing.B) {
	l := NewEventLog(io.Discard)
	fields := map[string]any{"iter": 100, "bytes": 4096, "worker": 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Emit("ckpt.diff.persist", fields)
	}
}
