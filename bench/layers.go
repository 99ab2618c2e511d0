package main

import (
	"os"
	"path/filepath"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/obs"
	"lowdiff/internal/trace"
)

// perLayer lists every metric a traced run prints, with its unit. A layer the
// workload bypasses reads 0, which is itself the claim "this workload does
// not touch that layer".
var perLayer = []metricDef{
	{"grad.local_ms", "ms"},
	{"optim.step_sparse_ms", "ms"}, {"optim.step_dense_ms", "ms"},
	{"compress.compress_ms", "ms"}, {"compress.out_bytes_ratio", "ratio"},
	{"compress.merge_ms", "ms"}, {"compress.decompress_ms", "ms"},
	{"comm.allgather_sparse_ms", "ms"}, {"comm.ring_allreduce_ms", "ms"},
	{"core.single_worker_step_ms", "ms"},
	{"core.blocked_puts_per_step", "count"}, {"core.queue_high_mark", "count"},
	{"core.snapshot_ms_per_step", "ms"},
	{"core.diff_writes_per_step", "count"}, {"core.full_writes_per_step", "count"},
	{"core.phase.compute_ms_per_step", "ms"}, {"core.phase.compress_ms_per_step", "ms"},
	{"core.phase.allgather_ms_per_step", "ms"}, {"core.phase.apply_ms_per_step", "ms"},
	{"core.phase.snapshot_ms_per_step", "ms"}, {"core.phase.merge_ms_per_step", "ms"},
	{"core.phase.diff-write_ms_per_step", "ms"}, {"core.phase.full-write_ms_per_step", "ms"},
	{"core.phase.queue-wait_ms_per_step", "ms"},
	{"core.train_stall_ms_per_step", "ms"}, {"core.achieved_overlap_ratio", "ratio"},
	{"core.ckpt_lag_ms_p50", "ms"}, {"core.ckpt_lag_ms_p90", "ms"},
	{"core.flush_ms", "ms"},
	{"core.allocs_per_step", "count"}, {"core.alloc_bytes_per_step", "B"},
	{"parallel.dispatches_per_step", "count"}, {"parallel.inline_per_step", "count"},
	{"checkpoint.encode_diff_ms", "ms"}, {"checkpoint.encode_full_ms", "ms"},
	{"checkpoint.diff_bytes", "B"}, {"checkpoint.full_bytes", "B"},
	{"checkpoint.decode_diff_ms", "ms"}, {"checkpoint.decode_full_ms", "ms"},
	{"checkpoint.scan_ms", "ms"},
	{"storage.write_ms_per_step", "ms"}, {"storage.writes_per_step", "count"},
	{"storage.write_bytes_per_step", "B"},
	{"storage.write_diff_ms_p50", "ms"}, {"storage.write_full_ms_p50", "ms"},
	{"storage.write_ms_p99", "ms"},
	{"storage.delete_ms_per_step", "ms"}, {"storage.failed_ops", "count"},
	{"storage.read_ms_p50", "ms"}, {"storage.reads_per_recover", "count"}, {"storage.list_ms", "ms"},
	{"storage.remote.create_ms_p50", "ms"}, {"storage.remote.data_ms_p50", "ms"},
	{"storage.remote.commit_ms_p50", "ms"}, {"storage.remote.get_ms_p50", "ms"},
	{"storaged.backing_commit_ms_p50", "ms"}, {"storaged.backing_commit_ms_p99", "ms"},
	{"storaged.commits", "count"}, {"storaged.retries", "count"},
	{"storaged.quota_rejects", "count"}, {"storaged.server_share", "ratio"},
	{"storage.tiered.evictions", "count"}, {"storage.tiered.spilled_bytes", "B"},
	{"storage.tiered.cold_write_ms_p50", "ms"}, {"storage.tiered.hot_bytes_end", "B"},
	{"recovery.full_load_ms", "ms"}, {"recovery.load_ms_per_diff", "ms"},
	{"recovery.apply_ms_per_diff", "ms"}, {"recovery.verify_ms", "ms"},
	{"trace.overhead_ratio", "ratio"}, {"trace.spans_per_step", "count"}, {"trace.dropped", "count"},
	{"host.yardstick_ms", "ms"},
}

// tracedPhases are the phases of trace.CanonicalPhases that attribute time
// inside a training step (the envelope, peer retains and restart replay are
// not among them).
var tracedPhases = []string{
	trace.PhaseCompute, trace.PhaseCompress, trace.PhaseAllGather, trace.PhaseApply,
	trace.PhaseSnapshot, trace.PhaseMerge, trace.PhaseDiffWrite, trace.PhaseFullWrite,
	trace.PhaseQueueWait,
}

// layerMetrics fills in the per-layer numbers of a traced run from its three
// instruments: the store interposers, the layer probes, and the program's
// own recorder and registries.
func (r *runner) layerMetrics(rec *recovered) error {
	for _, m := range perLayer {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, 0)
		}
	}
	steps := r.steps()
	tr := r.b.tr

	// Pair: side a checkpoints untraced, side b checkpoints traced.
	r.set("trace.overhead_ratio", median(r.ratios))
	r.set("host.yardstick_ms", median(r.yard.values()))
	r.set("core.allocs_per_step", perStep(float64(r.mem.mallocs), steps))
	r.set("core.alloc_bytes_per_step", perStep(float64(r.mem.bytes), steps))
	r.runStats(steps)

	// The program's recorder, cut to the timed blocks and to its own tracks.
	all := tr.rec.Events()
	lo, hi := r.timedStart.Sub(tr.epoch), r.timedEnd.Sub(tr.epoch)
	var own, writes []trace.Event
	for _, e := range all {
		if e.Start < lo || e.Start >= hi {
			continue
		}
		switch {
		case len(e.Track) < 6 || e.Track[:6] != "bench.":
			own = append(own, e)
		case e.Track == "bench.store."+tenantName(0) && e.Name == "write":
			writes = append(writes, e)
		}
	}
	prof := trace.BuildProfile(own)
	for _, phase := range tracedPhases {
		var total time.Duration
		for _, p := range prof.Phases {
			// A consumer waiting on an empty queue is idle, not stalled:
			// queue-wait costs a step only where the train track waits.
			if p.Phase == phase && (phase != trace.PhaseQueueWait || p.Track == trace.TrackTrain) {
				total += p.Total
			}
		}
		r.set("core.phase."+phase+"_ms_per_step", perStep(ms(total), steps))
	}
	r.set("core.train_stall_ms_per_step", perStep(ms(prof.TrainStall), steps))
	r.set("core.achieved_overlap_ratio", prof.OverlapRatio)
	r.set("trace.spans_per_step", perStep(float64(len(own)), steps))
	r.set("trace.dropped", float64(tr.rec.Dropped()))
	lags := checkpointLags(own, writes)
	r.set("core.ckpt_lag_ms_p50", median(lags))
	r.set("core.ckpt_lag_ms_p90", percentile(lags, 0.9))

	// The engine's pool counters run from engine start, warm-up included.
	engineSteps := float64(r.b.jobs[0].eng.Iter())
	snap := tr.engineReg.Snapshot()
	r.set("parallel.dispatches_per_step", registrySum(snap, "parallel.dispatches")/engineSteps)
	r.set("parallel.inline_per_step", registrySum(snap, "parallel.inline")/engineSteps)

	r.storeMetrics(steps, rec)
	if err := r.probeLayers(); err != nil {
		return err
	}
	if r.cfg.out == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.cfg.out, "spans-"+r.w.name+".jsonl"))
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, all); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// runStats folds side b's RunStats over the timed blocks. Block 0 of every
// job is the warm-up; cumulative fields are taken as last minus warm-up.
func (r *runner) runStats(steps int) {
	var blocked, high, diffWrites, fullWrites float64
	var snapshot time.Duration
	for _, j := range r.b.jobs {
		warm, last := j.runs[0], j.runs[len(r.bStep)]
		for _, st := range j.runs[1 : len(r.bStep)+1] {
			blocked += float64(st.BlockedPuts)
			fullWrites += float64(st.FullWrites)
			if h := float64(st.QueueHighMark); h > high {
				high = h
			}
		}
		diffWrites += float64(last.DiffWrites - warm.DiffWrites)
		snapshot += last.SnapshotTime - warm.SnapshotTime
	}
	r.set("core.blocked_puts_per_step", perStep(blocked, steps))
	r.set("core.queue_high_mark", high)
	r.set("core.snapshot_ms_per_step", perStep(ms(snapshot), steps))
	r.set("core.diff_writes_per_step", perStep(diffWrites, steps))
	r.set("core.full_writes_per_step", perStep(fullWrites, steps))
}

// storeMetrics reads the interposers: the engine's store during the timed
// blocks, the same store under recovery, and, in a pool, the daemon's backing
// store and the cold tier under it.
func (r *runner) storeMetrics(steps int, rec *recovered) {
	w := fold(r.writes, "write", "")
	diffs, fulls := fold(r.writes, "write", "diff-"), fold(r.writes, "write", "full-")
	dels := fold(r.writes, "delete", "")
	_, failed := countFailed(r.writes)
	r.set("storage.write_ms_per_step", perStep(sum(w.totals), steps))
	r.set("storage.writes_per_step", perStep(float64(w.n), steps))
	r.set("storage.write_bytes_per_step", perStep(float64(w.bytes), steps))
	r.set("storage.write_diff_ms_p50", median(diffs.totals))
	r.set("storage.write_full_ms_p50", median(fulls.totals))
	r.set("storage.write_ms_p99", percentile(w.totals, 0.99))
	r.set("storage.delete_ms_per_step", perStep(sum(dels.totals), steps))
	r.set("storage.failed_ops", float64(failed))

	reads, lists := fold(rec.reads, "read", ""), fold(rec.reads, "list", "")
	r.set("storage.read_ms_p50", median(reads.totals))
	r.set("storage.reads_per_recover", perStep(float64(reads.n), 2*len(rec.serial)))
	r.set("storage.list_ms", median(lists.totals))

	p := r.b.pool
	if p == nil {
		return
	}
	r.set("storage.remote.create_ms_p50", median(w.create))
	r.set("storage.remote.data_ms_p50", median(w.data))
	r.set("storage.remote.commit_ms_p50", median(w.commit))
	r.set("storage.remote.get_ms_p50", median(fold(rec.reads, "read", "full-").totals))

	var backing, cold []op
	for _, ip := range p.backing {
		backing = append(backing, ip.take()...)
	}
	for _, ip := range p.cold {
		cold = append(cold, ip.take()...)
	}
	r.countOps(backing)
	r.countOps(cold)
	// Daemon-side operations are not cut to the timed blocks, so neither is
	// the client-side total they are divided by.
	commits := fold(backing, "write", "")
	r.set("storaged.backing_commit_ms_p50", median(commits.totals))
	r.set("storaged.backing_commit_ms_p99", percentile(commits.totals, 0.99))
	if client := r.clientWriteMs; client > 0 {
		r.set("storaged.server_share", sum(commits.totals)/client)
	}
	snap := r.b.tr.daemonReg.Snapshot()
	r.set("storaged.commits", registrySum(snap, "storaged_commits_total"))
	r.set("storaged.retries", registrySum(snap, "storaged_retries_total"))
	r.set("storaged.quota_rejects", registrySum(snap, "storaged_quota_rejects_total"))

	var evictions, spilled, hot int64
	for _, t := range p.tiered {
		evictions += t.Evictions()
		spilled += t.SpilledBytes()
		hot += t.HotBytes()
	}
	r.set("storage.tiered.evictions", float64(evictions))
	r.set("storage.tiered.spilled_bytes", float64(spilled))
	r.set("storage.tiered.hot_bytes_end", float64(hot))
	r.set("storage.tiered.cold_write_ms_p50", median(fold(cold, "write", "").totals))
}

func registrySum(snap obs.Snapshot, name string) float64 {
	var v float64
	for _, m := range snap.Metrics {
		if m.Name == name {
			v += m.Value
		}
	}
	return v
}

// checkpointLags returns, for every traced iteration some committed object
// covers, the time from the end of its step to the end of the earliest
// commit that makes it recoverable: a differential whose range holds it, or
// a full checkpoint at or after it (0 when that commit beat the step's own
// optimizer update). It is the exposure of a crash.
func checkpointLags(own, writes []trace.Event) []float64 {
	type commit struct {
		entry checkpoint.Entry
		end   time.Duration
	}
	var commits []commit
	for _, e := range writes {
		name, _ := e.Args["name"].(string)
		failed, _ := e.Args["failed"].(bool)
		entry, err := checkpoint.ParseName(name)
		if err != nil || failed {
			continue
		}
		commits = append(commits, commit{entry, e.Start + e.Dur})
	}
	var lags []float64
	for _, e := range own {
		if e.Track != trace.TrackTrain || e.Name != trace.PhaseIteration {
			continue
		}
		iter, ok := e.Args["iter"].(int64)
		if !ok {
			continue
		}
		stepEnd := e.Start + e.Dur
		best := time.Duration(-1)
		for _, c := range commits {
			covers := c.entry.IsFull && c.entry.Iter >= iter ||
				!c.entry.IsFull && c.entry.FirstIter <= iter && iter <= c.entry.LastIter
			if covers && (best < 0 || c.end < best) {
				best = c.end
			}
		}
		switch {
		case best < 0: // not committed inside the timed blocks
		case best < stepEnd: // durable before the step's own update finished
			lags = append(lags, 0)
		default:
			lags = append(lags, ms(best-stepEnd))
		}
	}
	return lags
}
