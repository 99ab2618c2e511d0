package recovery

import (
	"testing"
	"testing/quick"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/compress"
	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// trainLowDiff runs a functional LowDiff engine and returns the engine and
// its store.
func trainLowDiff(t *testing.T, opts core.Options, iters int) (*core.Engine, storage.Store) {
	t.Helper()
	if opts.Store == nil {
		opts.Store = storage.NewMem()
	}
	e, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(iters); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e, opts.Store
}

// The headline correctness property of the reproduction: with unbatched
// differentials (BS=1) the serial recovery reproduces the live model state
// BIT-EXACTLY for Adam — recovering the full training state from a full
// checkpoint plus replayed compressed gradients (paper Finding 1).
func TestSerialRecoveryBitExactAdam(t *testing.T) {
	e, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(4, 64),
		Workers:   2,
		Optimizer: "adam",
		LR:        0.02,
		Rho:       0.1,
		FullEvery: 10,
		BatchSize: 1,
		Seed:      1,
	}, 37) // crash mid-interval: last full at 30, diffs to 37
	st, applied, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 37 {
		t.Fatalf("recovered to iter %d, want 37", st.Iter)
	}
	if applied != 7 {
		t.Fatalf("applied %d diffs, want 7", applied)
	}
	if !st.Params.Identical(e.Params()) {
		md, _ := st.Params.MaxAbsDiff(e.Params())
		t.Fatalf("recovered params differ from live (max diff %v)", md)
	}
	// Optimizer state must match too: a further identical step from both
	// states stays identical.
	live := e.OptState()
	if st.Opt.Step != live.Step {
		t.Fatalf("optimizer step %d, want %d", st.Opt.Step, live.Step)
	}
	for k, v := range live.Slots {
		if !tensor.Vector(st.Opt.Slots[k]).Identical(v) {
			t.Fatalf("optimizer slot %q differs", k)
		}
	}
}

func TestSerialRecoveryBitExactSGD(t *testing.T) {
	e, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(3, 48),
		Workers:   2,
		Optimizer: "sgd",
		LR:        0.05,
		Rho:       0.2,
		FullEvery: 8,
		BatchSize: 1,
		Seed:      2,
	}, 29)
	st, _, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 29 || !st.Params.Identical(e.Params()) {
		t.Fatal("SGD recovery not bit-exact")
	}
}

// Batched differentials under plain SGD are exact: the sum of gradients
// applied once equals the gradients applied one by one.
func TestBatchedRecoveryExactUnderSGD(t *testing.T) {
	e, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(3, 48),
		Workers:   1,
		Optimizer: "sgd",
		LR:        0.05,
		Rho:       0.2,
		FullEvery: 12,
		BatchSize: 4,
		Seed:      3,
	}, 24)
	st, applied, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 24 {
		t.Fatalf("iter = %d", st.Iter)
	}
	if applied != 0 {
		// Latest full is at 24; nothing to apply. Re-run with a crash
		// point that leaves batched diffs pending.
		t.Fatalf("applied = %d", applied)
	}
	if !st.Params.Identical(e.Params()) {
		t.Fatal("recovery at a full checkpoint boundary must be exact")
	}

	// Crash mid-interval: 12 extra iterations => last full at 36, then
	// batches [37-40][41-44] and the flushed tail [45].
	if _, err := e.Run(21); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st, applied, err = Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 45 {
		t.Fatalf("recovered to %d, want 45", st.Iter)
	}
	if applied != 3 {
		t.Fatalf("applied %d batched diffs, want 3", applied)
	}
	// Summing b gradients before the multiply reorders float32 additions,
	// so the batched path is exact up to rounding (a few ULP), not
	// bit-exact.
	if md, _ := st.Params.MaxAbsDiff(e.Params()); md > 1e-6 {
		t.Fatalf("batched SGD recovery diverged beyond rounding (max diff %v)", md)
	}
}

// Batched differentials under Adam are the documented gradient-accumulation
// approximation: recovery must land close to, though not exactly on, the
// live state — and exact at batch boundaries aligned with full checkpoints.
func TestBatchedRecoveryApproximateUnderAdam(t *testing.T) {
	e, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(3, 48),
		Workers:   1,
		Optimizer: "adam",
		LR:        0.01,
		Rho:       0.2,
		FullEvery: 12,
		BatchSize: 3,
		Seed:      4,
	}, 30) // full at 24, batches [25-27][28-30]
	st, applied, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 30 || applied != 2 {
		t.Fatalf("iter=%d applied=%d", st.Iter, applied)
	}
	md, err := st.Params.MaxAbsDiff(e.Params())
	if err != nil {
		t.Fatal(err)
	}
	if md == 0 {
		t.Log("batched Adam recovery happened to be exact (tiny updates)")
	}
	// 6 Adam steps at lr=0.01 move each weight at most ~0.06; the
	// accumulation error must be well inside one step's magnitude.
	if md > 0.05 {
		t.Fatalf("batched Adam recovery error %v too large", md)
	}
}

func TestParallelRecoveryMatchesSerialSGD(t *testing.T) {
	e, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(4, 32),
		Workers:   1,
		Optimizer: "sgd",
		LR:        0.05,
		Rho:       0.3,
		FullEvery: 16,
		BatchSize: 1,
		Seed:      5,
	}, 27) // full at 16, 11 unbatched diffs
	serial, nS, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	parallel, nP, err := LatestParallel(store, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if nS != 11 || nP != 11 {
		t.Fatalf("chain lengths: serial %d, parallel %d", nS, nP)
	}
	if serial.Iter != parallel.Iter {
		t.Fatalf("iters: %d vs %d", serial.Iter, parallel.Iter)
	}
	assertSameState(t, "parallel SGD", parallel, serial)
	if !serial.Params.Identical(e.Params()) {
		t.Fatal("serial unbatched SGD recovery must be bit-exact")
	}
}

// Parallel recovery replays every differential as serial recovery does, so
// unbatched Adam comes back bit-exactly: parameters, both moments and the
// step count.
func TestParallelRecoveryExactAdam(t *testing.T) {
	e, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(4, 32),
		Workers:   1,
		Optimizer: "adam",
		LR:        0.01,
		Rho:       0.3,
		FullEvery: 16,
		BatchSize: 1,
		Seed:      6,
	}, 24)
	st, n, err := LatestParallel(store, Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("applied %d differentials, want 8", n)
	}
	assertSameState(t, "parallel Adam", st, &State{Iter: 24, Params: e.Params(), Opt: e.OptState()})
}

func TestRecoveryEmptyStore(t *testing.T) {
	if _, _, err := Latest(storage.NewMem()); err == nil {
		t.Fatal("want no-checkpoint error")
	}
	if _, _, err := LatestParallel(storage.NewMem(), Options{}); err == nil {
		t.Fatal("want no-checkpoint error")
	}
}

func TestRecoveryStopsAtChainGap(t *testing.T) {
	_, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(2, 16),
		Workers:   1,
		Rho:       0.5,
		FullEvery: 10,
		BatchSize: 1,
		Seed:      7,
	}, 17) // full at 10, diffs 11..17
	// Delete diff 14 to create a gap: recovery must stop at 13.
	if err := store.Delete(checkpoint.DiffName(14, 14)); err != nil {
		t.Fatal(err)
	}
	st, applied, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 13 || applied != 3 {
		t.Fatalf("recovered to %d with %d diffs; want 13 with 3", st.Iter, applied)
	}
}

func TestRecoveryCorruptDiffFails(t *testing.T) {
	_, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(2, 16),
		Workers:   1,
		Rho:       0.5,
		FullEvery: 10,
		BatchSize: 1,
		Seed:      8,
	}, 12)
	name := checkpoint.DiffName(11, 11)
	data, err := storage.ReadObject(store, name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := storage.WriteObject(store, name, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Latest(store); err == nil {
		t.Fatal("corrupt differential must fail recovery loudly")
	}
}

func TestNaiveDCRecoveryApproximate(t *testing.T) {
	// Naive DC with rho=1 (lossless delta) recovers parameters exactly;
	// optimizer moments stay at the full checkpoint (documented).
	e, store := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(2, 24),
		Workers:   1,
		Optimizer: "adam",
		LR:        0.02,
		Rho:       1.0,
		FullEvery: 8,
		BatchSize: 1,
		NaiveDC:   true,
		Seed:      9,
	}, 13)
	st, applied, err := Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 13 || applied != 5 {
		t.Fatalf("iter=%d applied=%d", st.Iter, applied)
	}
	if !st.Params.Identical(e.Params()) {
		md, _ := st.Params.MaxAbsDiff(e.Params())
		t.Fatalf("lossless NaiveDC params diverged (max diff %v)", md)
	}
	// With rho=0.1 the delta is lossy: recovery lands near, not on.
	e2, store2 := trainLowDiff(t, core.Options{
		Spec:      model.Tiny(2, 24),
		Workers:   1,
		Optimizer: "adam",
		LR:        0.02,
		Rho:       0.1,
		FullEvery: 8,
		BatchSize: 1,
		NaiveDC:   true,
		Seed:      9,
	}, 13)
	st2, _, err := Latest(store2)
	if err != nil {
		t.Fatal(err)
	}
	md, _ := st2.Params.MaxAbsDiff(e2.Params())
	if md == 0 {
		t.Log("lossy NaiveDC recovery happened to be exact")
	}
	if md > 0.2 {
		t.Fatalf("lossy NaiveDC error unreasonably large: %v", md)
	}
}

func TestReplayBuildingBlock(t *testing.T) {
	n := 16
	params := tensor.New(n)
	o := optim.NewSGD(n, optim.SGDConfig{LR: 0.1})
	full := &checkpoint.Full{Iter: 0, Params: params.Clone(), Opt: o.Snapshot()}
	g := &compress.Compressed{Codec: "topk", N: n, Idx: []int32{2}, Vals: []float32{1}}
	diffs := []*checkpoint.Diff{
		{Kind: checkpoint.KindGradient, FirstIter: 1, LastIter: 1, Count: 1, Payload: g},
		{Kind: checkpoint.KindGradient, FirstIter: 2, LastIter: 2, Count: 1, Payload: g.Clone()},
	}
	st, err := Replay(full, diffs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 2 {
		t.Fatalf("iter = %d", st.Iter)
	}
	if st.Params[2] != -0.2 {
		t.Fatalf("params[2] = %v, want -0.2", st.Params[2])
	}
	// Invalid diff rejected.
	bad := []*checkpoint.Diff{{Kind: 9, FirstIter: 1, LastIter: 1, Count: 1, Payload: g}}
	if _, err := Replay(full, bad); err == nil {
		t.Fatal("want invalid-diff error")
	}
}

// Property: for random small runs with BS=1, serial and parallel recovery
// are always bit-exact under SGD.
func TestRecoveryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		iters := 5 + r.Intn(20)
		fullEvery := 2 + r.Intn(6)
		store := storage.NewMem()
		e, err := core.NewEngine(core.Options{
			Spec:      model.Tiny(1+r.Intn(3), 8+r.Intn(24)),
			Workers:   1 + r.Intn(2),
			Optimizer: "sgd",
			LR:        0.05,
			Rho:       0.1 + 0.4*r.Float64(),
			Store:     store,
			FullEvery: fullEvery,
			BatchSize: 1,
			Seed:      seed,
		})
		if err != nil {
			return false
		}
		if _, err := e.Run(iters); err != nil {
			return false
		}
		if err := e.Flush(); err != nil {
			return false
		}
		if iters < fullEvery {
			return true // no full checkpoint yet; nothing to recover
		}
		serial, _, err := Latest(store)
		if err != nil {
			return false
		}
		parallel, _, err := LatestParallel(store, Options{Parallelism: 2})
		if err != nil {
			return false
		}
		return serial.Params.Identical(e.Params()) && // bit-exact, both tiers
			parallel.Params.Identical(e.Params()) &&
			parallel.Opt.Step == serial.Opt.Step &&
			serial.Iter == int64(iters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
