package core

import (
	"bytes"
	"testing"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/storage"
	"lowdiff/internal/trace"
)

// phaseCounts folds events into "track/phase" span counts.
func phaseCounts(events []trace.Event) map[string]int {
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Track+"/"+ev.Name]++
	}
	return counts
}

// epochClock is a fixed-instant clock: every span it times starts and ends
// at the Unix epoch, so span order falls to the Seq tie-break.
func epochClock() time.Time { return time.Unix(0, 0).UTC() }

func TestEngineTraceRecordsTimeline(t *testing.T) {
	rec := trace.New()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 32), Workers: 2, Rho: 0.2,
		Store: storage.NewMem(), FullEvery: 5, BatchSize: 1,
		Seed: 51, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	totals := rec.TrackTotals()
	for _, track := range []string{"train", "checkpoint", "persist"} {
		if totals[track] <= 0 {
			t.Errorf("track %q recorded nothing (totals %v)", track, totals)
		}
	}
	// 10 iteration spans + 10 allgather spans on the train track.
	var iters, gathers, diffWrites, fullWrites int
	for _, ev := range rec.Events() {
		switch ev.Name {
		case trace.PhaseIteration:
			iters++
		case trace.PhaseAllGather:
			gathers++
		case trace.PhaseDiffWrite:
			diffWrites++
		case trace.PhaseFullWrite:
			fullWrites++
		}
	}
	if iters != 10 || gathers != 10 {
		t.Fatalf("iterations=%d allgathers=%d, want 10/10", iters, gathers)
	}
	if diffWrites != 10 { // batch size 1: every differential is its own write
		t.Fatalf("diff-writes=%d, want 10", diffWrites)
	}
	if fullWrites != 3 { // initial + iters 5, 10
		t.Fatalf("full-writes=%d, want 3", fullWrites)
	}
	// The timeline exports as valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace output")
	}
}

// TestPeerEngineTraceSpans runs the peer strategy under a clock frozen at
// the epoch (spans land at offset zero, which exercises the Seq tie-break) and checks the peer plane's phase coverage: retain
// spans for every rank, inline snapshots, and boundary full writes.
func TestPeerEngineTraceSpans(t *testing.T) {
	quiesce(t)
	rec := trace.NewWithClock(epochClock)
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 2, Rho: 0.3,
		Store: storage.NewMem(), FullEvery: 3, Seed: 1234,
		Peer:  &PeerSpec{Window: 3},
		Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(6); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	counts := phaseCounts(rec.Events())
	for key, want := range map[string]int{
		"train/" + trace.PhaseIteration:   6,
		"train/" + trace.PhaseCompute:     6,
		"train/" + trace.PhaseCompress:    6,
		"train/" + trace.PhaseAllGather:   6,
		"train/" + trace.PhaseApply:       6,
		"comm/" + trace.PhaseRetain:       12, // every rank retains every iteration
		"train/" + trace.PhaseSnapshot:    2,  // inline fulls at iters 3 and 6
		"persist/" + trace.PhaseFullWrite: 3,  // initial + the two boundaries
	} {
		if counts[key] != want {
			t.Errorf("%s spans = %d, want %d (all: %v)", key, counts[key], want, counts)
		}
	}
}

// TestPlusAndPPTraceSpans covers the remaining two topologies'
// phase taxonomies: the LowDiff+ snapshot offload pool and the
// pipeline-parallel stage-0 loop with coordinator merges.
func TestPlusAndPPTraceSpans(t *testing.T) {
	quiesce(t)
	recPlus := trace.NewWithClock(epochClock)
	pe, err := NewEngine(Options{
		Spec: model.Tiny(3, 16), Workers: 2, Store: storage.NewMem(),
		Plus: &PlusSpec{PersistEvery: 2}, Seed: 7, Trace: recPlus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Run(4); err != nil {
		t.Fatal(err)
	}
	counts := phaseCounts(recPlus.Events())
	layers := len(pe.opts.Spec.Layers)
	for key, want := range map[string]int{
		"train/" + trace.PhaseIteration:   4,
		"train/" + trace.PhaseCompute:     4 * layers,
		"train/" + trace.PhaseAllGather:   4 * layers,
		"train/" + trace.PhaseQueueWait:   4, // H_s.wait per step
		"snapshot/" + trace.PhaseSnapshot: 4 * layers,
	} {
		if counts[key] != want {
			t.Errorf("plus: %s spans = %d, want %d (all: %v)", key, counts[key], want, counts)
		}
	}

	recPP := trace.NewWithClock(epochClock)
	ppe, err := NewEngine(Options{
		Spec: model.Tiny(4, 16), PP: &PPSpec{Stages: 2}, Store: storage.NewMem(),
		FullEvery: 2, BatchSize: 1, Seed: 9, Trace: recPP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppe.Run(4); err != nil {
		t.Fatal(err)
	}
	if err := ppe.Flush(); err != nil {
		t.Fatal(err)
	}
	counts = phaseCounts(recPP.Events())
	for key, want := range map[string]int{
		"train/" + trace.PhaseIteration:      4, // stage 0 only
		"train/" + trace.PhaseCompute:        4,
		"train/" + trace.PhaseCompress:       4,
		"snapshot/" + trace.PhaseSnapshot:    2, // boundary fulls at iters 2 and 4
		"persist/" + trace.PhaseFullWrite:    3, // initial + the two boundaries
		"checkpoint/" + trace.PhaseMerge:     8, // 4 coordinator merges + 4 writer flushes
		"persist/" + trace.PhaseDiffWrite:    4,
		"checkpoint/" + trace.PhaseQueueWait: 0, // pp coordinator blocks in channel range, not queue
	} {
		if counts[key] != want {
			t.Errorf("pp: %s spans = %d, want %d (all: %v)", key, counts[key], want, counts)
		}
	}
}

// TestBatchedWriterTraceSpans drives the writer directly under the fixed
// clock: each full batch must emit one checkpoint/merge and one
// persist/diff-write span carrying the batch's iteration range.
func TestBatchedWriterTraceSpans(t *testing.T) {
	rec := trace.NewWithClock(epochClock)
	w, err := NewBatchedWriter(storage.NewMem(), 3, checkpoint.KindGradient)
	if err != nil {
		t.Fatal(err)
	}
	w.Trace = rec
	for i := int64(1); i <= 7; i++ {
		if err := w.Add(i, sparse(8, []int32{int32(i % 8)}, []float32{float32(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Cut(); err != nil { // partial third batch (iter 7)
		t.Fatal(err)
	}
	events := rec.Events()
	counts := phaseCounts(events)
	if counts["checkpoint/"+trace.PhaseMerge] != 3 || counts["persist/"+trace.PhaseDiffWrite] != 3 {
		t.Fatalf("merge/diff-write spans = %d/%d, want 3/3",
			counts["checkpoint/"+trace.PhaseMerge], counts["persist/"+trace.PhaseDiffWrite])
	}
	var lastWrite *trace.Event
	for i := range events {
		if ev := &events[i]; ev.Name == trace.PhaseDiffWrite {
			lastWrite = ev
		}
	}
	if lastWrite.Args["iter"] != int64(7) || lastWrite.Args["first"] != int64(7) {
		t.Fatalf("cut-flush span args = %v, want iter=7 first=7", lastWrite.Args)
	}
}

// TestWireTraceFeedsHistograms checks the live wiring: with both Trace
// and Metrics set, every recorded span lands in a per-(track, phase)
// trace.phase_seconds histogram and trace.dropped exports the ring's
// eviction count.
func TestWireTraceFeedsHistograms(t *testing.T) {
	rec := trace.New()
	rec.SetCap(8) // force drops so the counter moves
	reg := obs.New()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.3,
		Store: storage.NewMem(), FullEvery: 5, BatchSize: 1,
		Seed: 31, Trace: rec, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	var phaseSamples int64
	var droppedSeen, iterHist bool
	for _, m := range reg.Snapshot().Metrics {
		switch m.Name {
		case "trace.phase_seconds":
			phaseSamples += m.Count
			for _, l := range m.Labels {
				if l.Key == "phase" && l.Value == trace.PhaseIteration {
					iterHist = true
					if m.Count != 10 {
						t.Errorf("iteration histogram count = %d, want 10", m.Count)
					}
				}
			}
		case "trace.dropped":
			droppedSeen = true
			if int64(m.Value) != rec.Dropped() {
				t.Errorf("trace.dropped = %v, recorder says %d", m.Value, rec.Dropped())
			}
			if m.Value <= 0 {
				t.Error("expected ring evictions with cap 8")
			}
		}
	}
	if !iterHist {
		t.Error("no trace.phase_seconds{phase=iteration} histogram registered")
	}
	if !droppedSeen {
		t.Error("no trace.dropped counter registered")
	}
	// Histograms observe every span, including ones the ring evicted.
	if phaseSamples <= int64(rec.Len()) {
		t.Errorf("phase samples %d should exceed retained events %d", phaseSamples, rec.Len())
	}
}

func TestEngineTraceNilIsFree(t *testing.T) {
	// The default (no recorder) path must work exactly as before.
	e, err := NewEngine(Options{Spec: model.Tiny(2, 8), Workers: 1, Rho: 0.5, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
}
