package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden fixture files")

// goldenTimeline replays a scripted three-iteration run through a
// recorder on a virtual clock: per-phase spans, a consumer waiting on the
// reuse queue, batched merges and diff writes, and an inline full
// checkpoint after the last step. Every offset is scripted, so the
// resulting events — and everything derived from them — are byte-stable.
func goldenTimeline() []Event {
	epoch := time.Unix(0, 0).UTC()
	cur := epoch
	r := NewWithClock(func() time.Time { return cur })
	at := func(us int64) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	span := func(track, name string, startUS, endUS, iter int64) {
		cur = at(endUS)
		r.Span(track, name, at(startUS), map[string]interface{}{"iter": iter})
	}
	for i := int64(1); i <= 3; i++ {
		base := (i - 1) * 10000
		span(TrackTrain, PhaseCompute, base, base+4000, i)
		span(TrackTrain, PhaseCompress, base+4000, base+5000, i)
		span(TrackTrain, PhaseAllGather, base+5000, base+7000, i)
		span(TrackTrain, PhaseApply, base+7000, base+9000, i)
		span(TrackTrain, PhaseQueueWait, base+9000, base+9100, i)
		span(TrackTrain, PhaseIteration, base, base+10000, i)
		span(TrackCheckpoint, PhaseQueueWait, base, base+9100, i)
		span(TrackCheckpoint, PhaseMerge, base+9100, base+9600, i)
		span(TrackPersist, PhaseDiffWrite, base+9600, base+10000, i)
	}
	// Periodic full checkpoint after iteration 3: snapshot assembly, then
	// the blocking full write — the stall the profiler must surface.
	span(TrackSnapshot, PhaseSnapshot, 30000, 31000, 3)
	span(TrackPersist, PhaseFullWrite, 31000, 34000, 3)
	return r.Events()
}

func TestBuildProfileWindowsAndGaps(t *testing.T) {
	p := BuildProfile(goldenTimeline())
	if p.Step == nil || p.Step.Count != 3 {
		t.Fatalf("step stats = %+v, want 3 iterations", p.Step)
	}
	if len(p.Iters) != 3 {
		t.Fatalf("got %d iteration windows, want 3", len(p.Iters))
	}
	// Windows run envelope-start to next envelope-start; the last one
	// extends to the profile end so the trailing full write is charged to
	// iteration 3.
	last := p.Iters[2]
	if last.Iter != 3 || last.Start != 20000*time.Microsecond || last.End != 34000*time.Microsecond {
		t.Fatalf("window 3 = %+v, want [20ms,34ms)", last)
	}
	// Train-stall per window: the tail where train is idle but the
	// merge+diff-write (and for iter 3 the snapshot+full write) are busy.
	wantStall := []time.Duration{900 * time.Microsecond, 900 * time.Microsecond, 4900 * time.Microsecond}
	for i, w := range p.Iters {
		if w.Stall != wantStall[i] {
			t.Fatalf("window %d stall = %v, want %v", i+1, w.Stall, wantStall[i])
		}
	}
	if p.TrainStall != 6700*time.Microsecond {
		t.Fatalf("total train stall = %v, want 6.7ms", p.TrainStall)
	}
	// Overlap windows: train computing while the checkpoint side is idle.
	if p.Overlap != 27000*time.Microsecond {
		t.Fatalf("total overlap = %v, want 27ms", p.Overlap)
	}
	// The full-write stall must be visible as a concrete gap naming its
	// blocker.
	var fullStall *Gap
	for i, g := range p.Gaps {
		if g.Kind == GapTrainStall && g.End == 34000*time.Microsecond {
			fullStall = &p.Gaps[i]
		}
	}
	if fullStall == nil {
		t.Fatalf("no train-stall gap covering the full write; gaps = %+v", p.Gaps)
	}
	found := false
	for _, b := range fullStall.Busy {
		if b == TrackPersist+"/"+PhaseFullWrite {
			found = true
		}
	}
	if !found {
		t.Fatalf("full-write stall gap does not name its blocker: %+v", fullStall)
	}
}

// TestBuildProfileAchievedOverlap scripts a pipelined run: the checkpoint
// track compresses and snapshots iteration i's checkpoint state while
// the train track runs iteration i+1's wave. The achieved-overlap ratio
// must be the overlapped work divided by the train-busy headroom.
func TestBuildProfileAchievedOverlap(t *testing.T) {
	epoch := time.Unix(0, 0).UTC()
	cur := epoch
	r := NewWithClock(func() time.Time { return cur })
	at := func(us int64) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	span := func(track, name string, startUS, endUS, iter int64) {
		cur = at(endUS)
		r.Span(track, name, at(startUS), map[string]interface{}{"iter": iter})
	}
	for i := int64(1); i <= 2; i++ {
		base := (i - 1) * 10000
		span(TrackTrain, PhaseCompute, base, base+4000, i)
		span(TrackTrain, PhaseAllGather, base+4000, base+8000, i)
		// Checkpoint slices for the previous iteration, nested inside
		// this wave: 2ms of the 10ms train-busy window is reclaimed.
		if i > 1 {
			span(TrackCheckpoint, PhaseCompress, base+4000, base+5000, i-1)
			span(TrackCheckpoint, PhaseSnapshot, base+5000, base+6000, i-1)
		}
		span(TrackTrain, PhaseApply, base+8000, base+10000, i)
		span(TrackTrain, PhaseIteration, base, base+10000, i)
	}
	p := BuildProfile(r.Events())
	if len(p.Iters) != 2 {
		t.Fatalf("got %d windows, want 2", len(p.Iters))
	}
	w1, w2 := p.Iters[0], p.Iters[1]
	if w1.Overlapped != 0 || w1.OverlapRatio != 0 {
		t.Fatalf("window 1 overlapped = %v ratio %v, want zero", w1.Overlapped, w1.OverlapRatio)
	}
	if w2.Overlapped != 2000*time.Microsecond {
		t.Fatalf("window 2 overlapped = %v, want 2ms", w2.Overlapped)
	}
	if w2.Overlap != 8000*time.Microsecond {
		t.Fatalf("window 2 overlap-window = %v, want 8ms", w2.Overlap)
	}
	if want := 0.2; w2.OverlapRatio != want {
		t.Fatalf("window 2 ratio = %v, want %v", w2.OverlapRatio, want)
	}
	// Profile totals: 2ms overlapped out of 20ms headroom.
	if p.Overlapped != 2000*time.Microsecond || p.OverlapRatio != 0.1 {
		t.Fatalf("profile overlapped = %v ratio %v, want 2ms / 0.1", p.Overlapped, p.OverlapRatio)
	}
}

func TestBuildProfileCriticalPath(t *testing.T) {
	p := BuildProfile(goldenTimeline())
	// Critical totals must cover the whole windowed span with no idle row
	// (every elementary interval in this fixture has an active span).
	var total time.Duration
	for _, c := range p.Critical {
		if c.Phase == "idle" {
			t.Fatalf("unexpected idle critical segment: %+v", c)
		}
		total += c.Total
	}
	span := p.End - p.Iters[0].Start
	if total != span {
		t.Fatalf("critical path totals %v, want full span %v", total, span)
	}
	// Working spans shadow concurrent stalls, and between stalls the
	// higher-priority track wins: checkpoint/queue-wait runs under every
	// whole step but never appears on the critical path (train's own
	// queue-wait covers the only interval where no work is running).
	for _, c := range p.Critical {
		if c.Track == TrackCheckpoint && c.Phase == PhaseQueueWait {
			t.Fatalf("shadowed stall reached the critical path: %+v", c)
		}
		if c.Track == TrackTrain && c.Phase == PhaseQueueWait && c.Total != 300*time.Microsecond {
			t.Fatalf("train queue-wait on critical path = %v, want 300µs (3 × 100µs)", c.Total)
		}
	}
}

func TestBuildProfileEmptyAndNoEnvelopes(t *testing.T) {
	p := BuildProfile(nil)
	if p.Events != 0 || len(p.Iters) != 0 {
		t.Fatalf("empty profile = %+v", p)
	}
	var buf bytes.Buffer
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	// Spans without an iteration envelope still get phase stats.
	p = BuildProfile([]Event{{Track: "persist", Name: PhaseFullWrite, Start: 0, Dur: time.Millisecond, Seq: 1}})
	if len(p.Phases) != 1 || len(p.Iters) != 0 {
		t.Fatalf("envelope-free profile = %+v", p)
	}
	buf.Reset()
	if err := p.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestPhaseQuantilesExactAtScale: 20,000 spans of one phase, durations
// 1–20,000 µs in interleaved order. p50, p95 and max are nearest-rank over
// all of them, however many there are.
func TestPhaseQuantilesExactAtScale(t *testing.T) {
	const n = 20000
	evs := make([]Event, n)
	for i := range evs {
		// 7919 is coprime with n, so this visits every duration once.
		dur := time.Duration(i*7919%n+1) * time.Microsecond
		evs[i] = Event{Track: TrackPersist, Name: PhaseDiffWrite, Start: time.Duration(i) * time.Millisecond, Dur: dur, Seq: uint64(i + 1)}
	}
	p := BuildProfile(evs)
	if len(p.Phases) != 1 {
		t.Fatalf("got %d phases, want 1", len(p.Phases))
	}
	got := p.Phases[0]
	if got.Count != n || got.P50 != 10*time.Millisecond || got.P95 != 19*time.Millisecond || got.Max != 20*time.Millisecond {
		t.Fatalf("count %d p50 %v p95 %v max %v, want %d 10ms 19ms 20ms", got.Count, got.P50, got.P95, got.Max, n)
	}
}

func TestDiffProfilesSelfIsZero(t *testing.T) {
	p := BuildProfile(goldenTimeline())
	d := DiffProfiles(p, p)
	for _, pd := range d.Phases {
		if pd.Delta != 0 || pd.ACount != pd.BCount {
			t.Fatalf("self-diff phase not zero: %+v", pd)
		}
	}
	var buf bytes.Buffer
	if err := d.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty diff report")
	}
}

// TestGoldenReportBytes pins the full text and JSON reports of the
// scripted virtual-clock run byte-for-byte. Regenerate with:
//
//	go test ./internal/trace -run TestGoldenReportBytes -update
func TestGoldenReportBytes(t *testing.T) {
	render := func() (text, jsonOut []byte) {
		p := BuildProfile(goldenTimeline())
		var tb, jb bytes.Buffer
		if err := p.WriteText(&tb); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		return tb.Bytes(), jb.Bytes()
	}
	text1, json1 := render()
	text2, json2 := render()
	if !bytes.Equal(text1, text2) || !bytes.Equal(json1, json2) {
		t.Fatal("two renders of the same scripted run differ")
	}
	for _, tc := range []struct {
		golden string
		got    []byte
	}{
		{"golden_report.txt", text1},
		{"golden_report.json", json1},
	} {
		path := filepath.Join("testdata", tc.golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden %s (run with -update): %v", path, err)
		}
		if !bytes.Equal(tc.got, want) {
			t.Errorf("%s drifted from golden.\n-- got --\n%s\n-- want --\n%s", tc.golden, tc.got, want)
		}
	}
}

// TestGoldenJSONLRoundTripStable writes the scripted run to JSONL, reads
// it back, and checks the report built from the loaded trace is
// byte-identical to the report built from the live events — the contract
// that makes lowdifftrace reports comparable across machines.
func TestGoldenJSONLRoundTripStable(t *testing.T) {
	events := goldenTimeline()
	var live bytes.Buffer
	if err := BuildProfile(events).WriteText(&live); err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, events); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadEvents(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var reloaded bytes.Buffer
	if err := BuildProfile(loaded).WriteText(&reloaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), reloaded.Bytes()) {
		t.Fatalf("report changed across JSONL round-trip:\n-- live --\n%s\n-- loaded --\n%s", live.String(), reloaded.String())
	}
}
