package main

import (
	"bytes"
	"io"
	"sync"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/comm"
	"lowdiff/internal/compress"
	"lowdiff/internal/core"
	"lowdiff/internal/grad"
	"lowdiff/internal/optim"
	"lowdiff/internal/recovery"
	"lowdiff/internal/tensor"
)

// Layer probes: after the timed section of a traced run the harness feeds
// the workload's own data — gradients of this model at the parameters the
// run ended on, compressed at this ratio, batched at this size, stored in
// this store — through each layer's public functions, one call at a time,
// and reports the median call. A layer the workload does not use reads 0.

// probe times n calls of fn and returns the median in ms.
func probe(n int, fn func(i int) error) (float64, error) {
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		samples[i] = ms(time.Since(t0))
	}
	return median(samples), nil
}

// collective times n calls of a collective on rank 0 while every other rank
// of the group makes the same calls from a goroutine of its own.
func collective(n, ranks int, fn func(rank, i int) error) (float64, error) {
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for rank := 1; rank < ranks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < n && errs[rank] == nil; i++ {
				errs[rank] = fn(rank, i)
			}
		}(rank)
	}
	med, err := probe(n, func(i int) error { return fn(0, i) })
	wg.Wait()
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	return med, err
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(b []byte) (int, error) {
	c.n += int64(len(b))
	return len(b), nil
}

const probeGrads = 4 // distinct gradients per worker, so no call repeats its input

func (r *runner) probeLayers() error {
	n := 15
	if r.cfg.quick {
		n = 2
	}
	knobs := r.w.options()
	workers, batch := knobs.Workers, knobs.BatchSize
	if batch < 1 {
		batch = 1
	}
	j := r.b.jobs[0]
	size := r.spec.NumParams()
	params := j.eng.Params().Clone()
	iter := int(j.eng.Iter())
	oracle, err := grad.New(r.spec, r.cfg.seed, gradNoise)
	if err != nil {
		return err
	}
	// grads[w][i] is worker w's gradient at iteration iter+i.
	grads := make([][]tensor.Vector, workers)
	for w := range grads {
		grads[w] = make([]tensor.Vector, probeGrads)
		for i := range grads[w] {
			grads[w][i] = tensor.New(size)
			if err := oracle.Local(params, w, iter+i, grads[w][i]); err != nil {
				return err
			}
		}
	}
	scratch := tensor.New(size)
	v, err := probe(n, func(i int) error { return oracle.Local(params, 0, iter+i, scratch) })
	if err != nil {
		return err
	}
	r.set("grad.local_ms", v)

	opt, err := optim.New("adam", size)
	if err != nil {
		return err
	}
	if v, err = probe(n, func(i int) error { return opt.Step(params, grads[0][i%probeGrads]) }); err != nil {
		return err
	}
	r.set("optim.step_dense_ms", v)

	var diff *checkpoint.Diff
	if r.w.dense() {
		bufs := make([]tensor.Vector, workers)
		for w := range bufs {
			bufs[w] = grads[w][0].Clone()
		}
		group, err := comm.NewGroup(workers)
		if err != nil {
			return err
		}
		if v, err = collective(n, workers, func(rank, _ int) error { return group.RingAllReduceSum(rank, bufs[rank]) }); err != nil {
			return err
		}
		r.set("comm.ring_allreduce_ms", v)
	} else if diff, err = r.probeSparse(n, workers, batch, iter, grads, params, opt); err != nil {
		return err
	}

	// checkpoint: encode into a counting discard writer, decode from memory.
	var cw countingWriter
	var blob bytes.Buffer
	if diff != nil {
		if v, err = probe(n, func(int) error { cw.n = 0; return diff.EncodeWith(&cw, nil) }); err != nil {
			return err
		}
		r.set("checkpoint.encode_diff_ms", v)
		r.set("checkpoint.diff_bytes", float64(cw.n))
		if err := diff.EncodeWith(&blob, nil); err != nil {
			return err
		}
		if v, err = probe(n, func(int) error { _, err := checkpoint.DecodeDiff(bytes.NewReader(blob.Bytes())); return err }); err != nil {
			return err
		}
		r.set("checkpoint.decode_diff_ms", v)
	}
	full := &checkpoint.Full{Iter: int64(iter), Params: params, Opt: j.eng.OptState()}
	if v, err = probe(n, func(int) error { cw.n = 0; return full.EncodeWith(&cw, nil) }); err != nil {
		return err
	}
	r.set("checkpoint.encode_full_ms", v)
	r.set("checkpoint.full_bytes", float64(cw.n))
	blob.Reset()
	if err := full.EncodeWith(&blob, nil); err != nil {
		return err
	}
	if v, err = probe(n, func(int) error { _, err := checkpoint.DecodeFull(bytes.NewReader(blob.Bytes())); return err }); err != nil {
		return err
	}
	r.set("checkpoint.decode_full_ms", v)
	if err := r.probeRecovery(n); err != nil {
		return err
	}

	// One worker alone: what is left of base_step_ms is comm and waiting.
	knobs.Spec, knobs.Seed, knobs.Noise, knobs.Workers = r.spec, r.cfg.seed, gradNoise, 1
	solo, err := core.NewEngine(knobs)
	if err != nil {
		return err
	}
	if v, err = probe(4, func(int) error { _, err := solo.Run(r.iters); return err }); err != nil {
		return err
	}
	r.attempted += int64(4 * r.iters)
	r.set("core.single_worker_step_ms", v/float64(r.iters))
	return nil
}

// probeSparse covers the layers only compressed data-parallel training
// crosses, and returns a differential built as the workload builds them.
func (r *runner) probeSparse(n, workers, batch, iter int, grads [][]tensor.Vector, params tensor.Vector, opt optim.Optimizer) (*checkpoint.Diff, error) {
	comp, err := compress.NewPooled("topk", 0.01, r.cfg.seed, nil)
	if err != nil {
		return nil, err
	}
	v, err := probe(n, func(i int) error { _, err := comp.Compress(grads[0][i%probeGrads]); return err })
	if err != nil {
		return nil, err
	}
	r.set("compress.compress_ms", v)

	local := make([][]*compress.Compressed, workers)
	for w := range local {
		local[w] = make([]*compress.Compressed, probeGrads)
		for i := range local[w] {
			if local[w][i], err = comp.Compress(grads[w][i]); err != nil {
				return nil, err
			}
		}
	}
	r.set("compress.out_bytes_ratio", float64(local[0][0].EncodedBytes())/float64(4*len(params)))

	group, err := comm.NewGroup(workers)
	if err != nil {
		return nil, err
	}
	// Rank 0 keeps what it gathered: synced[i] is iteration iter+i's
	// synchronized gradient, the unit every later layer handles.
	synced := make([]*compress.Compressed, probeGrads)
	gather := func(rank, i int) error {
		c, err := group.AllGatherSparse(rank, local[rank][i%probeGrads])
		if rank == 0 {
			synced[i%probeGrads] = c
		}
		return err
	}
	if n < probeGrads {
		n = probeGrads
	}
	if v, err = collective(n, workers, gather); err != nil {
		return nil, err
	}
	r.set("comm.allgather_sparse_ms", v)

	if v, err = probe(n, func(int) error { _, err := compress.MergeWith(nil, synced...); return err }); err != nil {
		return nil, err
	}
	r.set("compress.merge_ms", v)
	dense := tensor.New(len(params))
	if v, err = probe(n, func(i int) error { return synced[i%probeGrads].DecompressWith(nil, dense) }); err != nil {
		return nil, err
	}
	r.set("compress.decompress_ms", v)
	if v, err = probe(n, func(i int) error {
		s := synced[i%probeGrads]
		return opt.StepSparse(params, s.Idx, s.Vals)
	}); err != nil {
		return nil, err
	}
	r.set("optim.step_sparse_ms", v)

	payload := synced[0]
	if batch > 1 {
		if payload, err = compress.MergeWith(nil, synced[:batch]...); err != nil {
			return nil, err
		}
	}
	return &checkpoint.Diff{
		Kind: checkpoint.KindGradient, FirstIter: int64(iter + 1), LastIter: int64(iter + batch),
		Count: int32(batch), Payload: payload,
	}, nil
}

// probeRecovery splits a recovery of tenant 0's flushed chain into its
// steps: scan, load the full, load each differential, replay, verify.
func (r *runner) probeRecovery(n int) error {
	store := r.b.jobs[0].raw
	var m *checkpoint.Manifest
	v, err := probe(n, func(int) (err error) { m, err = checkpoint.Scan(store); return err })
	if err != nil {
		return err
	}
	r.set("checkpoint.scan_ms", v)
	latest, ok := m.LatestFull()
	if !ok {
		return io.ErrUnexpectedEOF // flushAndVerify recovered from this store; it cannot be empty
	}
	if n > 5 {
		n = 5
	}
	var full *checkpoint.Full
	if v, err = probe(n, func(int) (err error) { full, err = checkpoint.LoadFull(store, latest.Name); return err }); err != nil {
		return err
	}
	r.set("recovery.full_load_ms", v)
	chain := m.DiffsAfter(full.Iter)
	diffs := make([]*checkpoint.Diff, len(chain))
	t0 := time.Now()
	for i, e := range chain {
		if diffs[i], err = checkpoint.LoadDiff(store, e.Name); err != nil {
			return err
		}
	}
	r.set("recovery.load_ms_per_diff", perStep(ms(time.Since(t0)), len(chain)))
	// Replaying no differentials costs the state copy every replay makes.
	base, err := probe(n, func(int) error { _, err := recovery.Replay(full, nil); return err })
	if err != nil {
		return err
	}
	if v, err = probe(n, func(int) error { _, err := recovery.Replay(full, diffs); return err }); err != nil {
		return err
	}
	r.set("recovery.apply_ms_per_diff", perStep(v-base, len(chain)))
	if v, err = probe(n, func(int) error { _, err := recovery.Verify(store, recovery.ValidateOptions{}); return err }); err != nil {
		return err
	}
	r.set("recovery.verify_ms", v)
	return nil
}
