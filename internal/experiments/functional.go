package experiments

import (
	"fmt"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/comm"
	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
)

// The func-* experiments measure the real Go implementation (tensors,
// compression, checkpoint files, recovery) on scaled-down models, giving
// measured evidence alongside the simulator's full-scale numbers.

func init() {
	register("func-train", funcTrain)
	register("func-recovery", funcRecovery)
	register("func-batch", funcBatch)
	register("func-storage", funcStorage)
	register("func-pp", funcPP)
	register("func-peer", funcPeer)
}

// funcScale divides zoo model sizes down to laptop scale.
const funcScale = 2000

// funcTrain measures real training-loop overhead of LowDiff checkpointing
// versus no checkpointing on a scaled GPT2-S.
func funcTrain() (*Table, error) {
	spec, err := model.ByName("GPT2-S")
	if err != nil {
		return nil, err
	}
	scaled := spec.Scaled(funcScale)
	const iters = 200
	run := func(store storage.Store) (time.Duration, *core.RunStats, error) {
		e, err := core.NewEngine(core.Options{
			Spec: scaled, Workers: 2, Rho: 0.01, Store: store,
			FullEvery: 50, BatchSize: 5, Parallelism: dataPlaneParallelism, Overlap: overlapEnabled, Trace: traceRecorder, Seed: 42,
		})
		if err != nil {
			return 0, nil, err
		}
		start := time.Now()
		stats, err := e.Run(iters)
		if err != nil {
			return 0, nil, err
		}
		if err := e.Flush(); err != nil {
			return 0, nil, err
		}
		return time.Since(start), &stats, nil
	}
	base, _, err := run(nil)
	if err != nil {
		return nil, err
	}
	store, release, err := newStore("func-train")
	if err != nil {
		return nil, err
	}
	defer release()
	withCkpt, stats, err := run(store)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "func-train",
		Title:  fmt.Sprintf("Measured training time, scaled GPT2-S (%d params), %d iterations, 2 workers", scaled.NumParams(), iters),
		Header: []string{"config", "wall time", "diff writes", "full writes", "blocked puts"},
	}
	t.AddRow("no checkpointing", base.Round(time.Millisecond).String(), "-", "-", "-")
	t.AddRow("LowDiff per-iteration", withCkpt.Round(time.Millisecond).String(),
		fmt.Sprintf("%d", stats.DiffWrites), fmt.Sprintf("%d", stats.FullWrites),
		fmt.Sprintf("%d", stats.BlockedPuts))
	t.Notes = append(t.Notes,
		"real measurement of the functional engine; overhead varies with host load")
	return t, nil
}

// funcRecovery measures real serial vs parallel recovery and verifies both
// against the live model.
func funcRecovery() (*Table, error) {
	spec, err := model.ByName("GPT2-L")
	if err != nil {
		return nil, err
	}
	scaled := spec.Scaled(funcScale)
	store, release, err := newStore("func-recovery")
	if err != nil {
		return nil, err
	}
	defer release()
	e, err := core.NewEngine(core.Options{
		Spec: scaled, Workers: 1, Optimizer: "sgd", LR: 0.05, Rho: 0.02,
		Store: store, FullEvery: 64, BatchSize: 1, Parallelism: dataPlaneParallelism, Overlap: overlapEnabled, Trace: traceRecorder, Seed: 7,
	})
	if err != nil {
		return nil, err
	}
	if _, err := e.Run(64 + 48); err != nil { // full at 64, 48 diffs after
		return nil, err
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "func-recovery",
		Title:  fmt.Sprintf("Measured recovery, scaled GPT2-L (%d params), 48 differentials after the last full checkpoint", scaled.NumParams()),
		Header: []string{"mode", "wall time", "recovered iter", "max |err| vs live"},
	}
	start := time.Now()
	serial, nS, err := recovery.Latest(store)
	if err != nil {
		return nil, err
	}
	dSerial := time.Since(start)
	start = time.Now()
	par, nP, err := recovery.LatestParallel(store, recovery.Options{Parallelism: 8, Trace: traceRecorder})
	if err != nil {
		return nil, err
	}
	dPar := time.Since(start)
	if nS != 48 || nP != 48 {
		return nil, fmt.Errorf("experiments: expected 48 diffs, got %d/%d", nS, nP)
	}
	mdS, err := serial.Params.MaxAbsDiff(e.Params())
	if err != nil {
		return nil, err
	}
	mdP, err := par.Params.MaxAbsDiff(e.Params())
	if err != nil {
		return nil, err
	}
	t.AddRow("serial replay", dSerial.Round(time.Microsecond).String(),
		fmt.Sprintf("%d", serial.Iter), fmt.Sprintf("%.2g", mdS))
	t.AddRow("parallel (log-n merge)", dPar.Round(time.Microsecond).String(),
		fmt.Sprintf("%d", par.Iter), fmt.Sprintf("%.2g", mdP))
	t.Notes = append(t.Notes,
		"serial replay is bit-exact under SGD (err 0); parallel merging reorders float adds (err ~1 ULP)")
	return t, nil
}

// funcBatch measures the real batched writer against a bandwidth-throttled
// store (Exp. 6a's effect, measured).
func funcBatch() (*Table, error) {
	spec, err := model.ByName("GPT2-S")
	if err != nil {
		return nil, err
	}
	scaled := spec.Scaled(funcScale)
	const iters = 60
	t := &Table{
		ID:     "func-batch",
		Title:  fmt.Sprintf("Measured store writes vs batching size, scaled GPT2-S (%d params), %d differentials", scaled.NumParams(), iters),
		Header: []string{"batch size", "store writes", "bytes written", "wall time"},
	}
	for _, bs := range []int{1, 2, 5, 10, 20} {
		base, release, err := newStore("func-batch")
		if err != nil {
			return nil, err
		}
		defer release()
		stats := storage.NewStats(base)
		e, err := core.NewEngine(core.Options{
			Spec: scaled, Workers: 1, Rho: 0.02, Store: stats,
			FullEvery: iters, BatchSize: bs, Parallelism: dataPlaneParallelism, Overlap: overlapEnabled, Trace: traceRecorder, Seed: 3,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := e.Run(iters); err != nil {
			return nil, err
		}
		if err := e.Flush(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		t.AddRow(fmt.Sprintf("%d", bs), fmt.Sprintf("%d", stats.Writes()),
			bytesIEC(float64(stats.WrittenBytes())), d.Round(time.Microsecond).String())
	}
	t.Notes = append(t.Notes,
		"batching divides the write count by the batch size and shrinks bytes via sparse union-merge (paper §4.2)")
	return t, nil
}

// funcPP runs the pipeline-parallel engine and verifies that the globally
// assembled checkpoints recover the per-stage training bit-exactly (the
// paper's VGG16-PP configuration, measured on the real implementation).
func funcPP() (*Table, error) {
	spec, err := model.ByName("VGG-16")
	if err != nil {
		return nil, err
	}
	scaled := spec.Scaled(funcScale)
	t := &Table{
		ID:     "func-pp",
		Title:  fmt.Sprintf("Pipeline-parallel LowDiff, scaled VGG-16 (%d params), 40 iterations", scaled.NumParams()),
		Header: []string{"stages", "wall time", "diff batches", "recovered iter", "max |err| vs live"},
	}
	for _, stages := range []int{1, 2, 4} {
		store, release, err := newStore("func-pp")
		if err != nil {
			return nil, err
		}
		defer release()
		e, err := core.NewEngine(core.Options{
			Spec: scaled, PP: &core.PPSpec{Stages: stages}, Rho: 0.05, LR: 0.02,
			Store: store, FullEvery: 20, BatchSize: 1, Parallelism: dataPlaneParallelism, Overlap: overlapEnabled, Trace: traceRecorder, Seed: 9,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		stats, err := e.Run(40 + 6) // past the last full checkpoint
		if err != nil {
			return nil, err
		}
		if err := e.Flush(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		st, _, err := recovery.Latest(store)
		if err != nil {
			return nil, err
		}
		md, err := st.Params.MaxAbsDiff(e.Params())
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", stages),
			d.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", stats.DiffWrites),
			fmt.Sprintf("%d", st.Iter),
			fmt.Sprintf("%.2g", md))
	}
	t.Notes = append(t.Notes,
		"stage-disjoint gradients merge into one differential per iteration; global replay is exact for any stage count")
	return t, nil
}

// funcPeer runs the peer-replicated differential strategy under scheduled
// crashes and measures what the windows buy: zero per-iteration store
// writes while peers are healthy, bit-exact recovery from a survivor's
// window, and the explicit storage-path degradation when every window dies.
func funcPeer() (*Table, error) {
	spec, err := model.ByName("GPT2-S")
	if err != nil {
		return nil, err
	}
	scaled := spec.Scaled(funcScale)
	const iters = 50
	t := &Table{
		ID:     "func-peer",
		Title:  fmt.Sprintf("Peer-replicated differentials, scaled GPT2-S (%d params), 3 workers, %d iterations", scaled.NumParams(), iters),
		Header: []string{"scenario", "health", "diff writes", "survivors", "recovered iter", "peer diffs", "max |err| vs live"},
	}
	for _, sc := range []struct {
		name    string
		crashes []comm.Crash
	}{
		{"healthy", nil},
		{"2 of 3 crash @25", []comm.Crash{{Rank: 1, Iter: 25}, {Rank: 2, Iter: 25}}},
		{"all crash @25", []comm.Crash{{Rank: 0, Iter: 25}, {Rank: 1, Iter: 25}, {Rank: 2, Iter: 25}}},
	} {
		store, release, err := newStore("func-peer")
		if err != nil {
			return nil, err
		}
		defer release()
		var chaos *comm.ChaosConfig
		if sc.crashes != nil {
			chaos = &comm.ChaosConfig{Crashes: sc.crashes}
		}
		e, err := core.NewEngine(core.Options{
			Spec: scaled, Workers: 3, Rho: 0.02, Store: store,
			FullEvery: 20, Parallelism: dataPlaneParallelism, Trace: traceRecorder, Seed: 11,
			Peer: &core.PeerSpec{Window: 20, Chaos: chaos},
		})
		if err != nil {
			return nil, err
		}
		stats, err := e.Run(iters)
		if err != nil {
			return nil, err
		}
		if err := e.Flush(); err != nil {
			return nil, err
		}
		st, rep, err := recovery.FromPeers(store, e.Peers(), recovery.ValidateOptions{})
		if err != nil {
			return nil, err
		}
		md, err := st.Params.MaxAbsDiff(e.Params())
		if err != nil {
			return nil, err
		}
		if st.Iter != iters || md != 0 {
			return nil, fmt.Errorf("experiments: peer recovery landed at %d (err %g), want %d bit-exact", st.Iter, md, iters)
		}
		t.AddRow(sc.name, e.Health().String(),
			fmt.Sprintf("%d", stats.DiffWrites),
			fmt.Sprintf("%d", len(e.Peers().Survivors())),
			fmt.Sprintf("%d", st.Iter),
			fmt.Sprintf("%d", rep.PeerDiffs),
			fmt.Sprintf("%.2g", md))
	}
	t.Notes = append(t.Notes,
		"peers retain the all-gathered compressed gradient, so per-iteration checkpoints cost zero store writes;",
		"when surviving windows cannot cover the chain the engine degrades to the storage differential path (DESIGN.md §9)")
	return t, nil
}

// funcStorage verifies the analytic Exp. 7 size model against real encoded
// checkpoints on scaled models.
func funcStorage() (*Table, error) {
	t := &Table{
		ID:     "func-storage",
		Title:  fmt.Sprintf("Measured checkpoint sizes on 1/%d-scale models (rho=0.01)", funcScale),
		Header: []string{"model", "full ckpt (encoded)", "full (3*4*Psi)", "diff (encoded)", "diff bound (2*8*rho*Psi)"},
	}
	for _, name := range []string{"BERT-B", "GPT2-S", "GPT2-L"} {
		spec, err := model.ByName(name)
		if err != nil {
			return nil, err
		}
		scaled := spec.Scaled(funcScale)
		store, release, err := newStore("func-storage")
		if err != nil {
			return nil, err
		}
		defer release()
		e, err := core.NewEngine(core.Options{
			Spec: scaled, Workers: 2, Rho: 0.01, Store: store,
			FullEvery: 4, BatchSize: 1, Parallelism: dataPlaneParallelism, Overlap: overlapEnabled, Trace: traceRecorder, Seed: 5,
		})
		if err != nil {
			return nil, err
		}
		if _, err := e.Run(5); err != nil {
			return nil, err
		}
		if err := e.Flush(); err != nil {
			return nil, err
		}
		fullSize, err := store.Size(checkpoint.FullName(4))
		if err != nil {
			return nil, err
		}
		diffSize, err := store.Size(checkpoint.DiffName(5, 5))
		if err != nil {
			return nil, err
		}
		psi := float64(scaled.NumParams())
		t.AddRow(name,
			bytesIEC(float64(fullSize)), bytesIEC(12*psi),
			bytesIEC(float64(diffSize)), bytesIEC(2*8*0.01*psi))
		if float64(fullSize) < 12*psi {
			return nil, fmt.Errorf("experiments: full checkpoint smaller than raw state")
		}
	}
	t.Notes = append(t.Notes,
		"encoded full checkpoints carry 3*Psi floats plus framing; diffs carry the merged 2-worker Top-K union")
	return t, nil
}
