package trace

import (
	"testing"

	"lowdiff/internal/allocgate"
)

// benchStep replays one step loop's worth of instrumentation — the exact
// span pattern core's dpRank.step emits — so the enabled-vs-nil pair
// measures the profiler's per-iteration overhead in isolation.
func benchStep(r *Recorder, i int64) {
	iterDone := r.Begin1(TrackTrain, PhaseIteration, "iter", i)
	r.Begin1(TrackTrain, PhaseCompute, "iter", i)()
	r.Begin1(TrackTrain, PhaseCompress, "iter", i)()
	r.Begin1(TrackTrain, PhaseAllGather, "iter", i)()
	r.Begin1(TrackTrain, PhaseApply, "iter", i)()
	iterDone()
}

// BenchmarkTraceStepSpansEnabled is the enabled-recorder overhead per
// instrumented step (ring-capped, as a long-running trainer configures
// it). TestTraceAllocs holds its allocations.
func BenchmarkTraceStepSpansEnabled(b *testing.B) {
	r := New()
	r.SetCap(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStep(r, int64(i))
	}
}

// BenchmarkTraceStepSpansNil is the disabled (nil recorder) fast path —
// the production default. Must stay at zero allocs; enforced exactly by
// TestNilFastPathAllocationFree.
func BenchmarkTraceStepSpansNil(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStep(r, int64(i))
	}
}

// BenchmarkTraceSpanRingSaturated measures steady-state recording once
// the ring is full and every span evicts the oldest.
func BenchmarkTraceSpanRingSaturated(b *testing.B) {
	r := New()
	r.SetCap(64)
	for i := int64(0); i < 64; i++ {
		r.Begin1(TrackTrain, PhaseCompute, "iter", i)()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Begin1(TrackTrain, PhaseCompute, "iter", int64(i))()
	}
}

// BenchmarkTraceBuildProfile folds the scripted fixture timeline; the
// analyzer runs offline so this is about scaling, not hot-path cost.
// TestTraceAllocs holds its allocations.
func BenchmarkTraceBuildProfile(b *testing.B) {
	events := goldenTimeline()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := BuildProfile(events); p.Events == 0 {
			b.Fatal("empty profile")
		}
	}
}

// TestTraceAllocs holds the profiler at its allocation bounds: one
// instrumented step on an enabled, ring-capped recorder, and one
// BuildProfile of the fixture timeline. Each bound is 1.25× what one call
// took when the gate was set: 18 allocs and 3,351 B per step, 387 allocs
// and 33,048 B per profile.
func TestTraceAllocs(t *testing.T) {
	t.Run("step_spans", func(t *testing.T) {
		r := New()
		r.SetCap(4096)
		var i int64
		allocgate.Check(t, 1000, 22.5, 4_189, func() {
			benchStep(r, i)
			i++
		})
	})
	t.Run("build_profile", func(t *testing.T) {
		events := goldenTimeline()
		allocgate.Check(t, 100, 483.75, 41_310, func() {
			if p := BuildProfile(events); p.Events == 0 {
				t.Fatal("empty profile")
			}
		})
	})
}
