package comm

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/compress"
)

// testGrad builds a small distinct sparse gradient for iteration t.
func testGrad(t int64) *compress.Compressed {
	return &compress.Compressed{
		Codec: "topk", N: 16,
		Idx:  []int32{int32(t % 16), int32((t + 3) % 16)},
		Vals: []float32{float32(t), float32(t) * 0.5},
	}
}

func TestWindowRetainCoverSlice(t *testing.T) {
	w, err := NewWindow(4)
	if err != nil {
		t.Fatal(err)
	}
	for it := int64(1); it <= 6; it++ {
		if err := w.Retain(it, testGrad(it)); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Newest(); got != 6 {
		t.Fatalf("Newest = %d, want 6", got)
	}
	if got := w.Occupancy(); got != 4 {
		t.Fatalf("Occupancy = %d, want 4", got)
	}
	// Depth 4 at newest 6 holds {3,4,5,6}: (2,6] covered, (1,6] not.
	if !w.Covers(2, 6) {
		t.Fatal("window should cover (2,6]")
	}
	if w.Covers(1, 6) {
		t.Fatal("window must not cover (1,6]: iteration 2 was evicted")
	}
	if got := w.NewestCovered(2); got != 6 {
		t.Fatalf("NewestCovered(2) = %d, want 6", got)
	}
	if got := w.NewestCovered(1); got != 1 {
		t.Fatalf("NewestCovered(1) = %d, want 1 (cannot bridge the eviction)", got)
	}
	grads, err := w.Slice(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(grads) != 4 {
		t.Fatalf("Slice returned %d grads, want 4", len(grads))
	}
	for i, g := range grads {
		want := testGrad(int64(3 + i))
		if g.Vals[0] != want.Vals[0] { //lint:allow floateq bit-exact retention check
			t.Fatalf("slice[%d] = %v, want %v", i, g.Vals[0], want.Vals[0])
		}
	}
	if _, err := w.Slice(1, 6); !errors.Is(err, ErrWindowGap) {
		t.Fatalf("Slice(1,6) error = %v, want ErrWindowGap", err)
	}
}

func TestWindowDetectsCorruption(t *testing.T) {
	w, err := NewWindow(4)
	if err != nil {
		t.Fatal(err)
	}
	for it := int64(1); it <= 3; it++ {
		if err := w.Retain(it, testGrad(it)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt iteration 2's retained copy behind the checksum's back.
	w.corrupt(2, flipOneBit(testGrad(2), 12345))
	if w.Covers(0, 3) {
		t.Fatal("window must not cover a corrupted entry")
	}
	if _, err := w.Slice(0, 3); !errors.Is(err, ErrPayloadCorrupt) {
		t.Fatalf("Slice error = %v, want ErrPayloadCorrupt", err)
	}
	if got := w.Corrupt.Value(); got == 0 {
		t.Fatal("corruption counter did not increment")
	}
	// The prefix before the damage is still restorable.
	if got := w.NewestCovered(0); got != 1 {
		t.Fatalf("NewestCovered(0) = %d, want 1", got)
	}
}

func TestWindowClear(t *testing.T) {
	w, err := NewWindow(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Retain(1, testGrad(1)); err != nil {
		t.Fatal(err)
	}
	w.Clear()
	if got := w.Occupancy(); got != 0 {
		t.Fatalf("Occupancy after Clear = %d, want 0", got)
	}
	if got := w.NewestCovered(0); got != 0 {
		t.Fatalf("NewestCovered after Clear = %d, want 0", got)
	}
}

func TestPeersCrashAndBestRestore(t *testing.T) {
	p, err := NewPeers(3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for it := int64(1); it <= 5; it++ {
		for r := 0; r < 3; r++ {
			if err := p.Retain(r, it, testGrad(it)); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Crash(1)
	if got := p.Survivors(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Survivors = %v, want [0 2]", got)
	}
	if !p.Crashed(1) || p.Crashed(0) {
		t.Fatal("crash flags wrong")
	}
	// Crashed rank retains nothing afterwards.
	if err := p.Retain(1, 6, testGrad(6)); err != nil {
		t.Fatal(err)
	}
	if got := p.Window(1).Occupancy(); got != 0 {
		t.Fatalf("crashed window occupancy = %d, want 0", got)
	}
	rank, grads, target, err := p.BestRestore(2)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 0 || target != 5 || len(grads) != 3 {
		t.Fatalf("BestRestore = rank %d target %d len %d, want 0/5/3", rank, target, len(grads))
	}
	// A base older than every window refuses explicitly.
	if _, _, _, err := p.BestRestore(0); !errors.Is(err, ErrNoSurvivingPeer) {
		t.Fatalf("BestRestore(0) error = %v, want ErrNoSurvivingPeer", err)
	}
	// The survivors go on retaining after the crash.
	for _, r := range p.Survivors() {
		if err := p.Retain(r, 6, testGrad(6)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPeersCoveredAndOccupancy(t *testing.T) {
	p, err := NewPeers(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for it := int64(1); it <= 3; it++ {
		if err := p.Retain(0, it, testGrad(it)); err != nil {
			t.Fatal(err)
		}
	}
	// Rank 1 has a hole at iteration 2.
	if err := p.Retain(1, 1, testGrad(1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Retain(1, 3, testGrad(3)); err != nil {
		t.Fatal(err)
	}
	if !p.Covered(0, 3) {
		t.Fatal("rank 0 covers (0,3]")
	}
	if got := p.MinOccupancy(); got != 2 {
		t.Fatalf("MinOccupancy = %d, want 2", got)
	}
	p.Crash(0)
	if p.Covered(0, 3) {
		t.Fatal("only rank 1 survives and it has a hole")
	}
}

// TestChaosDeterministicAcrossInterleavings drives the same seeded chaos
// from concurrent goroutines twice and checks the injected fault pattern is
// identical — the property that makes chaos runs replayable.
func TestChaosDeterministicAcrossInterleavings(t *testing.T) {
	run := func() (ChaosCounters, []int) {
		chaos, err := NewChaos(ChaosConfig{
			Seed:        42,
			DropProb:    0.2,
			CorruptProb: 0.1,
			LateProb:    0.1,
			Crashes:     []Crash{{Rank: 2, Iter: 10}},
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPeers(4, 8, chaos)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for it := int64(1); it <= 20; it++ {
					if err := p.Retain(r, it, testGrad(it)); err != nil {
						t.Error(err)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		occ := make([]int, 4)
		for r := 0; r < 4; r++ {
			occ[r] = p.Window(r).Occupancy()
		}
		return p.ChaosCounters(), occ
	}
	c1, occ1 := run()
	c2, occ2 := run()
	if c1 != c2 {
		t.Fatalf("chaos counters differ across runs: %+v vs %+v", c1, c2)
	}
	if fmt.Sprint(occ1) != fmt.Sprint(occ2) {
		t.Fatalf("occupancies differ across runs: %v vs %v", occ1, occ2)
	}
	if c1.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", c1.Crashes)
	}
	if occ1[2] != 0 {
		t.Fatalf("crashed rank 2 occupancy = %d, want 0", occ1[2])
	}
	if c1.Drops == 0 {
		t.Fatal("expected at least one injected drop at these probabilities")
	}
}

func TestChaosLateRetainHealsNextIteration(t *testing.T) {
	chaos, err := NewChaos(ChaosConfig{Seed: 7, LateProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPeers(1, 4, chaos)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Retain(0, 1, testGrad(1)); err != nil {
		t.Fatal(err)
	}
	// The payload for iteration 1 is delayed: invisible now…
	if p.Window(0).Covers(0, 1) {
		t.Fatal("late payload must not be visible at its own iteration")
	}
	// …and lands when the next retain arrives (which is itself delayed).
	if err := p.Retain(0, 2, testGrad(2)); err != nil {
		t.Fatal(err)
	}
	if !p.Window(0).Covers(0, 1) {
		t.Fatal("late payload should land at the next retain")
	}
	if got := p.ChaosCounters().LateRetains; got != 2 {
		t.Fatalf("LateRetains = %d, want 2", got)
	}
}

func TestChaosConfigValidation(t *testing.T) {
	if _, err := NewChaos(ChaosConfig{DropProb: 1.5}); err == nil {
		t.Fatal("DropProb out of range must fail")
	}
	if _, err := NewChaos(ChaosConfig{LateProb: math.NaN()}); err == nil {
		t.Fatal("a NaN LateProb must fail")
	}
	if _, err := NewChaos(ChaosConfig{Crashes: []Crash{{Rank: -1, Iter: 1}}}); err == nil {
		t.Fatal("negative crash rank must fail")
	}
	if _, err := NewChaos(ChaosConfig{Crashes: []Crash{{Rank: 0, Iter: 0}}}); err == nil {
		t.Fatal("crash iteration 0 must fail")
	}
	chaos, err := NewChaos(ChaosConfig{Crashes: []Crash{{Rank: 5, Iter: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPeers(3, 2, chaos); err == nil {
		t.Fatal("crash rank beyond peer count must fail at NewPeers")
	}
}

// TestPeerRetainAllocs holds the peer plane's per-iteration path at its
// allocation count: each of two ranks retains the iteration's gradient, and
// the coverage check looks every entry since the base up. A retain
// checksums the gradient's wire encoding, whose 64-byte header staging is
// the one object it allocates. The bounds are the measured count plus half
// an object and the measured bytes plus 512, so one more allocation per
// call fails the gate.
func TestPeerRetainAllocs(t *testing.T) {
	const depth = 8
	p, err := NewPeers(2, depth, nil)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([]*compress.Compressed, depth)
	for i := range grads {
		grads[i] = testGrad(int64(i))
	}
	iter := int64(0)
	allocgate.Check(t, 100, 2.5, 640, func() {
		iter++
		for rank := range 2 {
			if err := p.Retain(rank, iter, grads[iter%depth]); err != nil {
				t.Fatal(err)
			}
		}
		if !p.Covered(max(0, iter-depth+1), iter) {
			t.Fatalf("iteration %d: the windows do not cover their last %d entries", iter, depth-1)
		}
	})
}
