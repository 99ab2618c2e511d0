package recovery

import (
	"fmt"
	"strings"
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/optim"
	"lowdiff/internal/tensor"
)

// perDiffReplay is the oracle the tiled replay is held to: a copy of the
// full stepped one differential at a time, on the serial kernels, through
// the optimizer's per-step entry points.
func perDiffReplay(full *checkpoint.Full, diffs []*checkpoint.Diff) (*State, error) {
	params := full.Params.Clone()
	o, err := optim.FromState(full.Opt, len(params))
	if err != nil {
		return nil, err
	}
	iter := full.Iter
	for _, d := range diffs {
		if d.FirstIter != iter+1 {
			return nil, fmt.Errorf("recovery: differential [%d,%d] does not continue from iteration %d",
				d.FirstIter, d.LastIter, iter)
		}
		if err := d.Validate(); err != nil {
			return nil, err
		}
		switch c := d.Payload; {
		case d.Kind == checkpoint.KindStateDelta:
			err = c.AddInto(params)
		case c.Idx != nil:
			err = o.StepSparse(params, c.Idx, c.Vals)
		default:
			g := tensor.New(len(params))
			if err = c.Decompress(g); err == nil {
				err = o.Step(params, g)
			}
		}
		if err != nil {
			return nil, err
		}
		iter = d.LastIter
	}
	return &State{Iter: iter, Params: params, Opt: o.Snapshot()}, nil
}

// tiledChain builds the differentials after iteration 10 from a spec of
// space-separated family[xCount] words ("sparsex5 identity delta"): "delta" is
// a sparse state delta, every other family a gradient payload of that name.
func tiledChain(t *testing.T, r *tensor.RNG, spec string) []*checkpoint.Diff {
	t.Helper()
	var diffs []*checkpoint.Diff
	for _, word := range strings.Fields(spec) {
		family, count := word, 1
		if i := strings.IndexByte(word, 'x'); i > 0 {
			family = word[:i]
			if _, err := fmt.Sscan(word[i+1:], &count); err != nil {
				t.Fatal(err)
			}
		}
		kind := checkpoint.KindGradient
		if family == "delta" {
			family, kind = "sparse", checkpoint.KindStateDelta
		}
		for ; count > 0; count-- {
			iter := int64(11 + len(diffs))
			diffs = append(diffs, &checkpoint.Diff{Kind: kind, FirstIter: iter, LastIter: iter, Count: 1,
				Payload: payload(t, r, family, fixtureN)})
		}
	}
	return diffs
}

// own is a deep copy of full for a replay to take over.
func own(full *checkpoint.Full) *checkpoint.Full {
	return &checkpoint.Full{Iter: full.Iter, Params: full.Params.Clone(), Opt: full.Opt.Clone()}
}

// Replaying in time-tiled runs is replaying one differential at a time, bit
// for bit, for every rule, at every window and worker count: on a chain that is one
// long run, and on one whose runs are broken by dense gradients and by a
// kind change.
func TestTiledReplayMatchesPerDifferential(t *testing.T) {
	chains := []string{
		"sparsex20",
		"sparsex3 identity sparsex5 identity sparsex2 delta sparse deltax2 sparsex4",
	}
	seed := uint64(700)
	for _, rule := range []string{"adam", "sgd", "sgd-momentum"} {
		for _, spec := range chains {
			seed++
			r := tensor.NewRNG(seed)
			full, diffs := fixtureFull(t, r, rule), tiledChain(t, r, spec)
			want, err := perDiffReplay(full, diffs)
			if err != nil {
				t.Fatal(err)
			}
			for _, window := range []int{1, 2, 8, 16} {
				for _, workers := range []int{1, 2, 7} {
					what := fmt.Sprintf("%s %q window %d at %d workers", rule, spec, window, workers)
					got, err := (&pipeline{workers: workers, depth: window}).replay(own(full), fromSlice(diffs))
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					assertSameState(t, what, got, want)
				}
			}
		}
	}
}

// A gap mid-chain fails the replay with the per-differential replay's error
// at every window, and damage at the k-th differential of the first run
// fails it before the run touches the state it was handed.
func TestTiledReplayRejectsGapAndDamage(t *testing.T) {
	r := tensor.NewRNG(31)
	full := fixtureFull(t, r, "adam")
	diffs := tiledChain(t, r, "sparsex12")
	gapped := append(append([]*checkpoint.Diff(nil), diffs[:5]...), diffs[6:]...)
	_, want := perDiffReplay(full, gapped)
	if want == nil {
		t.Fatal("the oracle accepted a gap")
	}
	for _, window := range []int{1, 2, 8, 16} {
		if _, err := (&pipeline{depth: window}).replay(own(full), fromSlice(gapped)); err == nil || err.Error() != want.Error() {
			t.Fatalf("gap at window %d: %v, want %v", window, err, want)
		}
	}
	damages := map[string]func(d *checkpoint.Diff){
		"index out of range": func(d *checkpoint.Diff) { d.Payload.Idx[len(d.Payload.Idx)-1] = fixtureN },
		"indices unsorted": func(d *checkpoint.Diff) {
			idx := d.Payload.Idx
			idx[0], idx[1] = idx[1], idx[0]
		},
		"values missing": func(d *checkpoint.Diff) { d.Payload.Vals = d.Payload.Vals[1:] },
	}
	for name, damage := range damages {
		for _, k := range []int{1, 4, 8} {
			for _, window := range []int{8, 16} {
				chain := make([]*checkpoint.Diff, len(diffs))
				for i, d := range diffs {
					chain[i] = &checkpoint.Diff{Kind: d.Kind, FirstIter: d.FirstIter, LastIter: d.LastIter, Count: d.Count, Payload: d.Payload.Clone()}
				}
				damage(chain[k-1])
				mine := own(full)
				if _, err := (&pipeline{workers: 2, depth: window}).replay(mine, fromSlice(chain)); err == nil {
					t.Fatalf("%s at differential %d, window %d: accepted", name, k, window)
				}
				what := fmt.Sprintf("%s at differential %d, window %d", name, k, window)
				assertSameState(t, what, &State{Iter: 10, Params: mine.Params, Opt: mine.Opt}, &State{Iter: 10, Params: full.Params, Opt: full.Opt})
			}
		}
	}
}

// A state delta is scatter-added serially, and AddInto checks only that an
// index is in range: a duplicate or an out-of-order index would add in
// place. Replay validates every differential first, so a delta with either
// fails the replay before it, or the run of gradients before it, touches
// the state it was handed.
func TestReplayRejectsUnsortedStateDelta(t *testing.T) {
	r := tensor.NewRNG(37)
	full := fixtureFull(t, r, "sgd-momentum")
	damages := map[string]func(idx []int32){
		"indices unsorted":  func(idx []int32) { idx[0], idx[1] = idx[1], idx[0] },
		"duplicate indices": func(idx []int32) { idx[1] = idx[0] },
	}
	for name, damage := range damages {
		chain := tiledChain(t, r, "sparsex3 delta")
		damage(chain[3].Payload.Idx)
		if err := chain[3].Payload.AddInto(tensor.New(fixtureN)); err != nil {
			t.Fatalf("%s: AddInto rejected the delta itself (%v); this test needs one it accepts", name, err)
		}
		mine := own(full)
		if _, err := (&pipeline{workers: 2, depth: 16}).replay(mine, fromSlice(chain)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		assertSameState(t, name, &State{Iter: 10, Params: mine.Params, Opt: mine.Opt}, &State{Iter: 10, Params: full.Params, Opt: full.Opt})
	}
}
