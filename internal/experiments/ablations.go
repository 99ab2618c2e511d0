package experiments

import (
	"fmt"
	"time"

	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
)

// Ablations measure the functional implementation with individual design
// choices toggled, isolating each mechanism's contribution: the batched
// writer against a genuinely slow store, the reusing queue's back-pressure
// bound, recovery parallelism, and error feedback under aggressive
// compression.

func init() {
	register("ablation-batch", ablationBatch)
	register("ablation-queue", ablationQueue)
	register("ablation-recovery", ablationRecovery)
	register("ablation-ef", ablationEF)
}

// ablationBatch trains against a bandwidth-throttled store and measures
// end-to-end wall time as the batching size grows: with slow storage,
// unbatched per-iteration writes back-pressure training through the queue,
// and batching recovers the loss.
func ablationBatch() (*Table, error) {
	spec, err := model.ByName("GPT2-S")
	if err != nil {
		return nil, err
	}
	scaled := spec.Scaled(5000)
	const iters = 120
	t := &Table{
		ID:     "ablation-batch",
		Title:  fmt.Sprintf("Batched writing vs throttled store (scaled GPT2-S, %d iterations, 3MB/s store)", iters),
		Header: []string{"batch size", "wall time", "store writes", "blocked puts"},
	}
	for _, bs := range []int{1, 4, 12} {
		base, release, err := newStore("ablation-batch")
		if err != nil {
			return nil, err
		}
		defer release()
		throttled, err := storage.NewThrottled(base, 3e6)
		if err != nil {
			return nil, err
		}
		stats := storage.NewStats(throttled)
		e, err := core.NewEngine(core.Options{
			Spec: scaled, Workers: 1, Rho: 0.05, Store: stats,
			FullEvery: iters, BatchSize: bs, QueueCap: 4, Parallelism: dataPlaneParallelism, Overlap: overlapEnabled, Trace: traceRecorder, Seed: 21,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		run, err := e.Run(iters)
		if err != nil {
			return nil, err
		}
		if err := e.Flush(); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", bs),
			time.Since(start).Round(time.Millisecond).String(),
			fmt.Sprintf("%d", stats.Writes()),
			fmt.Sprintf("%d", run.BlockedPuts))
	}
	t.Notes = append(t.Notes,
		"larger batches divide the write count and relieve queue back-pressure on slow storage (§4.2)")
	return t, nil
}

// ablationQueue sweeps the reusing-queue capacity with a deliberately slow
// checkpointer: a small bound back-pressures training (bounded memory, the
// paper's Limitation 2 fix); a large bound absorbs bursts.
func ablationQueue() (*Table, error) {
	spec, err := model.ByName("GPT2-S")
	if err != nil {
		return nil, err
	}
	scaled := spec.Scaled(5000)
	const iters = 80
	t := &Table{
		ID:     "ablation-queue",
		Title:  fmt.Sprintf("Reusing-queue capacity vs back-pressure (scaled GPT2-S, %d iterations, 2MB/s store)", iters),
		Header: []string{"queue cap", "blocked puts", "queue high-water", "wall time"},
	}
	for _, cap := range []int{1, 4, 16, 64} {
		base, release, err := newStore("ablation-queue")
		if err != nil {
			return nil, err
		}
		defer release()
		throttled, err := storage.NewThrottled(base, 2e6)
		if err != nil {
			return nil, err
		}
		e, err := core.NewEngine(core.Options{
			Spec: scaled, Workers: 1, Rho: 0.05, Store: throttled,
			FullEvery: iters, BatchSize: 1, QueueCap: cap, Parallelism: dataPlaneParallelism, Overlap: overlapEnabled, Trace: traceRecorder, Seed: 22,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		run, err := e.Run(iters)
		if err != nil {
			return nil, err
		}
		if err := e.Flush(); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", cap),
			fmt.Sprintf("%d", run.BlockedPuts),
			fmt.Sprintf("%d", run.QueueHighMark),
			time.Since(start).Round(time.Millisecond).String())
	}
	t.Notes = append(t.Notes,
		"the bound trades retained gradient memory for producer stalls; the high-water mark never exceeds the cap")
	return t, nil
}

// ablationRecovery sweeps the apply pool size of exact replay over a fixed
// 96-differential chain.
func ablationRecovery() (*Table, error) {
	spec, err := model.ByName("GPT2-L")
	if err != nil {
		return nil, err
	}
	scaled := spec.Scaled(2000)
	store, release, err := newStore("ablation-recovery")
	if err != nil {
		return nil, err
	}
	defer release()
	e, err := core.NewEngine(core.Options{
		Spec: scaled, Workers: 1, Optimizer: "sgd", LR: 0.05, Rho: 0.02,
		Store: store, FullEvery: 96, BatchSize: 1, Parallelism: dataPlaneParallelism, Overlap: overlapEnabled, Trace: traceRecorder, Seed: 23,
	})
	if err != nil {
		return nil, err
	}
	if _, err := e.Run(96 + 96); err != nil {
		return nil, err
	}
	if err := e.Flush(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-recovery",
		Title:  fmt.Sprintf("Apply pool size of exact replay over a 96-differential chain (scaled GPT2-L, %d params)", scaled.NumParams()),
		Header: []string{"pool workers", "wall time", "max |err| vs live"},
	}
	for _, par := range []int{1, 2, 4, 8} {
		start := time.Now()
		st, _, err := recovery.LatestParallel(store, recovery.Options{Parallelism: par, Trace: traceRecorder})
		if err != nil {
			return nil, err
		}
		md, _ := st.Params.MaxAbsDiff(e.Params())
		t.AddRow(fmt.Sprintf("%d", par),
			time.Since(start).Round(time.Microsecond).String(), fmt.Sprintf("%.2g", md))
	}
	t.Notes = append(t.Notes,
		"every differential is replayed at every pool size, so the error is 0 in every row; the pool shards the decode and apply kernels only")
	return t, nil
}

// ablationEF compares final loss with and without error feedback across
// compression ratios on the noisy synthetic objective.
func ablationEF() (*Table, error) {
	spec := model.Tiny(4, 256)
	const iters = 1500
	t := &Table{
		ID:     "ablation-ef",
		Title:  fmt.Sprintf("Error feedback vs compression ratio (tiny model, %d SGD iterations)", iters),
		Header: []string{"rho", "plain topk loss", "topk+EF loss"},
	}
	run := func(rho float64, ef bool) (float64, error) {
		e, err := core.NewEngine(core.Options{
			Spec: spec, Workers: 2, Optimizer: "sgd", LR: 0.002,
			Rho: rho, ErrorFeedback: ef, Noise: 0.3, Parallelism: dataPlaneParallelism, Overlap: overlapEnabled, Trace: traceRecorder, Seed: 24,
		})
		if err != nil {
			return 0, err
		}
		stats, err := e.Run(iters)
		if err != nil {
			return 0, err
		}
		return stats.FinalLoss, nil
	}
	for _, rho := range []float64{0.001, 0.01, 0.1} {
		plain, err := run(rho, false)
		if err != nil {
			return nil, err
		}
		withEF, err := run(rho, true)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.3f", rho), fmt.Sprintf("%.4f", plain), fmt.Sprintf("%.4f", withEF))
	}
	t.Notes = append(t.Notes,
		"EF matters most at aggressive ratios under gradient noise; checkpoint recovery is unaffected either way")
	return t, nil
}
