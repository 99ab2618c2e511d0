package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"lowdiff/internal/model"
	"lowdiff/internal/storage"
	"lowdiff/internal/trace"
)

// TestOverlapValidation covers the option combinations the pipelined
// schedule rejects at construction (DESIGN.md §11): peer durability
// depends on the synchronous boundary persist, and Naïve DC with a
// stateful compressor cannot be replayed by the scheduler's own
// compressor instance.
func TestOverlapValidation(t *testing.T) {
	quiesce(t)
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{
			name: "peer",
			opts: Options{
				Spec: model.Tiny(2, 16), Workers: 2, Rho: 0.3,
				Store: storage.NewMem(), FullEvery: 2, Seed: 1,
				Peer: &PeerSpec{Window: 4}, Overlap: true,
			},
			want: "Peer",
		},
		{
			name: "naivedc-randk",
			opts: Options{
				Spec: model.Tiny(2, 16), Workers: 1, Codec: "randk", Rho: 0.5,
				Store: storage.NewMem(), FullEvery: 4, Seed: 1,
				NaiveDC: true, Overlap: true,
			},
			want: "stateless codec",
		},
		{
			name: "naivedc-error-feedback",
			opts: Options{
				Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.5,
				Store: storage.NewMem(), FullEvery: 4, Seed: 1,
				NaiveDC: true, ErrorFeedback: true, Overlap: true,
			},
			want: "error-feedback",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewEngine(tc.opts)
			if err == nil {
				t.Fatalf("NewEngine accepted %s with Overlap", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestOverlapSpansNestInsideNextAllgather pins the schedule's shape with
// a deterministic clock: every gated checkpoint slice of iteration i
// (overlap-track compress and snapshot spans) runs strictly inside the
// allgather span of iteration i+1, the communication wave during which
// the parameters are quiescent.
//
// Note the direction: the paper's figure overlays compression under the
// collective of the SAME logical step, but in this engine compute(i+1)
// depends on apply(i), so the checkpoint plane of iteration i is the
// work that hides inside iteration i+1's wave (DESIGN.md §11). The gate
// opens when the wave starts and the rendezvous completes before it
// ends, so nesting is enforced by synchronization, not by timing — the
// manually advanced clock only makes every timestamp distinct.
func TestOverlapSpansNestInsideNextAllgather(t *testing.T) {
	quiesce(t)
	var mu sync.Mutex
	cur := time.Unix(0, 0)
	rec := trace.NewWithClock(func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		cur = cur.Add(time.Millisecond)
		return cur
	})
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 2, Rho: 0.5, LR: 0.02,
		Store: storage.NewMem(), FullEvery: 2, Seed: 7,
		NaiveDC: true, Overlap: true, Trace: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(8); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	type iv struct{ start, end time.Duration }
	gathers := map[int64]iv{}
	var slices []trace.Event
	for _, ev := range rec.Events() {
		switch {
		case ev.Track == trace.TrackTrain && ev.Name == trace.PhaseAllGather:
			it := ev.Args["iter"].(int64)
			gathers[it] = iv{ev.Start, ev.Start + ev.Dur}
		case ev.Track == trace.TrackOverlap && ev.Name != trace.PhaseQueueWait:
			slices = append(slices, ev)
		}
	}
	if len(slices) == 0 {
		t.Fatal("overlapped run recorded no overlap-track compress/snapshot spans")
	}
	nested := 0
	for _, ev := range slices {
		it := ev.Args["iter"].(int64)
		wave, ok := gathers[it+1]
		if !ok {
			// The final iteration's slices run in the end-of-run drain;
			// there is no next wave to nest inside.
			continue
		}
		if ev.Start <= wave.start || ev.Start+ev.Dur >= wave.end {
			t.Errorf("%s/%s of iter %d spans [%v,%v], outside allgather of iter %d [%v,%v]",
				ev.Track, ev.Name, it, ev.Start, ev.Start+ev.Dur, it+1, wave.start, wave.end)
		}
		nested++
	}
	if nested == 0 {
		t.Fatal("no overlap slice had a next-iteration wave to nest inside")
	}
	if e.overlapDeposits.Value() == 0 || e.overlapSlices.Value() == 0 {
		t.Fatalf("overlap counters not advanced: deposits=%d slices=%d",
			e.overlapDeposits.Value(), e.overlapSlices.Value())
	}
}

// TestOverlapReducesTrainStall is the schedule's reason to exist: with a
// slow store (chaos latency on every write), the sequential PP schedule
// pays each boundary full persist inline between the iteration barriers
// — the profiler charges it as train-stall — while the overlapped
// schedule hands the write to the async persister and the stages keep
// training. The halving margin is generous; the real gap is ~the whole
// persist latency.
func TestOverlapReducesTrainStall(t *testing.T) {
	quiesce(t)
	stall := func(overlap bool) time.Duration {
		t.Helper()
		mem := storage.NewMem()
		// The injected latency dominates the persist cost so the test
		// holds on a single-CPU runner: a sleeping persister genuinely
		// overlaps with training even when encode CPU cannot.
		chaos, err := storage.NewChaos(mem, storage.ChaosConfig{
			LatencyProb: 1, Latency: 50 * time.Millisecond, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New()
		e, err := NewEngine(Options{
			Spec: model.Tiny(4, 8192), Rho: 0.2, Store: chaos,
			FullEvery: 3, DisableDiffs: true, Seed: 13,
			PP: &PPSpec{Stages: 2}, Overlap: overlap, Trace: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(8); err != nil {
			t.Fatal(err)
		}
		// Steady-state stall: the final window stretches to the end of
		// the trace, so it absorbs the end-of-run persister drain that
		// Run waits for anyway; mid-run windows are where the schedule
		// either stalls the stages (sequential) or does not (overlap).
		p := trace.BuildProfile(rec.Events())
		var sum time.Duration
		for _, it := range p.Iters[:len(p.Iters)-1] {
			sum += it.Stall
		}
		return sum
	}
	seq := stall(false)
	ovl := stall(true)
	if seq < 50*time.Millisecond {
		t.Fatalf("sequential run should stall on inline persists; got %v", seq)
	}
	if ovl*2 > seq {
		t.Fatalf("overlap did not reduce train-stall: sequential %v, overlapped %v", seq, ovl)
	}
}
