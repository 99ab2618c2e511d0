package core

import (
	"fmt"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/comm"
	"lowdiff/internal/compress"
	"lowdiff/internal/obs"
	"lowdiff/internal/trace"
)

// Peer-replicated differentials (Checkmate-style): the merged compressed
// gradient every worker receives from the all-gather is retained in a
// bounded per-peer ring window instead of discarded after the update, so
// the cluster's collective memory already holds the last W differentials —
// for free. Snapshots are therefore storage-write-free: only the periodic
// full checkpoint touches the store, and recovery chains any surviving
// peer's window onto it (recovery.FromPeers).
//
// When surviving windows cannot cover the chain since the last full
// (crashed workers, corrupt or dropped payloads), the engine degrades to
// HealthDegradedPeer, persists a fresh full base, and falls back to the
// storage-differential path — the same batched writer, retry ladder, and
// degradation rungs the DP strategy uses. At the next scheduled full that
// lands while at least one peer survives (and the window can span a full
// period), the peer plane is re-validated and health climbs back to OK.

// initPeer validates the peer-replication options and wires the
// peerTopology / peerSnapshotter pair.
func (e *Engine) initPeer() error {
	opts := e.opts
	if err := validateChain(opts); err != nil {
		return err
	}
	if opts.Store == nil {
		return fmt.Errorf("core: the Peer strategy needs a store for its periodic full checkpoints")
	}
	if opts.NaiveDC {
		return fmt.Errorf("core: NaiveDC checkpoints state deltas, which peers never receive; it is incompatible with the Peer strategy")
	}
	if opts.Peer.Window < 1 {
		return fmt.Errorf("core: peer window depth %d must be >= 1", opts.Peer.Window)
	}
	if err := validateOverlap(opts); err != nil {
		return err
	}
	if err := e.initDPWorkers(); err != nil {
		return err
	}
	var chaos *comm.Chaos
	if opts.Peer.Chaos != nil {
		cfg := *opts.Peer.Chaos
		if cfg.Events == nil {
			cfg.Events = opts.Events
		}
		c, err := comm.NewChaos(cfg)
		if err != nil {
			return err
		}
		chaos = c
	}
	peers, err := comm.NewPeers(opts.Workers, opts.Peer.Window, chaos)
	if err != nil {
		return err
	}
	peers.Trace = opts.Trace
	e.peers = peers
	if !opts.DisableDiffs {
		// The batched writer backs the storage fallback path; while the
		// peer plane is healthy it never sees a single write.
		if err := e.newWriter(checkpoint.KindGradient); err != nil {
			return err
		}
	}
	e.tag = "peer"
	e.topo = &peerTopology{dpTopology{e: e}}
	// The storage fallback is the DP chain, parked while the peer plane is
	// healthy (so it makes zero storage writes).
	e.snap = &peerSnapshotter{chainSnapshotter{
		e: e, dormant: func() bool { return !e.peerFallback.Load() },
		sink: chainSink{e: e, requestFull: true, suspended: true},
	}}
	return nil
}

// Peers exposes the peer-replication plane (nil unless the Peer strategy
// is selected) for recovery and inspection.
func (e *Engine) Peers() *comm.Peers { return e.peers }

// PeerFallbackActive reports whether the engine is currently on the
// storage-differential fallback path.
func (e *Engine) PeerFallbackActive() bool { return e.peerFallback.Load() }

// peerTopology is the data-parallel topology with ranks whose received
// gradients are retained in peer windows (Overlap is rejected at init, so
// the embedded scheduler hooks stay idle).
type peerTopology struct {
	dpTopology
}

func (d *peerTopology) newRank(rc *runCtx, w int) rankRunner {
	return &peerRank{d.newTrainRank(w)}
}

// peerRank is one peer-replicated worker's per-iteration state.
type peerRank struct {
	trainRank
}

func (r *peerRank) step(rc *runCtx, t int64) error {
	e, w := r.e, r.w
	synced, iterDone, err := r.syncGradient(t)
	if err != nil {
		return err
	}
	// Reuse: the received differential is already in this peer's memory —
	// retaining it in the window IS the per-iteration checkpoint. Zero
	// storage writes (the paper's gradient reuse taken to its Checkmate
	// conclusion).
	if err := e.peers.Retain(w, t, synced); err != nil {
		return err
	}
	if err := r.applyGradient(t, synced); err != nil {
		return err
	}
	iterDone()
	// Worker 0 makes the checkpoint decision after a barrier, so every
	// survivor's window already holds iteration t when coverage is
	// checked — deterministic regardless of goroutine scheduling.
	if err := e.group.Barrier(w); err != nil {
		return err
	}
	if w != 0 {
		return nil
	}
	return r.checkpointStep(rc, t, synced)
}

// checkpointStep is worker 0's per-iteration checkpoint decision: inline
// full persists at boundaries (and on fallback demand), peer-window
// coverage validation, fallback engagement, and re-promotion.
func (r *peerRank) checkpointStep(rc *runCtx, t int64, synced *compress.Compressed) error {
	e := r.e
	fallbackFull := e.needFull.CompareAndSwap(true, false)
	scheduled := t%int64(e.opts.FullEvery) == 0
	if scheduled || fallbackFull {
		// Synchronous persist: the peer plane's coverage base must be
		// durable before the window is allowed to slide past it.
		if err := r.persistInlineFull(t); err != nil {
			return err
		}
	}
	if scheduled {
		e.maybeRestorePeer(t)
	}
	if e.peerFallback.Load() {
		// Storage-differential fallback: hand the synchronized gradient
		// to the batched writer, exactly the DP path.
		if rc.queue != nil {
			putDone := e.opts.Trace.Begin1(trace.TrackTrain, trace.PhaseQueueWait, "iter", t)
			err := rc.queue.Put(Item{Iter: t, Layer: -1, Grad: synced})
			putDone()
			return err
		}
		return nil
	}
	// Peer plane healthy: verify some surviving window still covers the
	// chain since the last durable full.
	base := e.lastFullIter.Load()
	if base >= 0 && e.peers.Covered(base, t) {
		return nil
	}
	// Coverage broken — too many crashes, or drops/corruption punched a
	// hole the window cannot bridge. Degrade explicitly and fall back to
	// the storage path on a fresh base.
	e.degradeTo(HealthDegradedPeer)
	e.peerFallbacks.Inc()
	e.events.Emit("peer.fallback", e.fields(map[string]any{
		"iter": t, "base": base, "survivors": len(e.peers.Survivors()),
	}))
	if e.lastFullIter.Load() != t {
		if err := r.persistInlineFull(t); err != nil {
			return err
		}
	}
	e.peerFallback.Store(true)
	return nil
}

// persistInlineFull snapshots worker 0's state and persists it through the
// shared retry/health ladder, synchronously on the trainer.
func (r *peerRank) persistInlineFull(t int64) error {
	e := r.e
	snapDone := e.opts.Trace.Begin1(trace.TrackTrain, trace.PhaseSnapshot, "iter", t)
	var full *checkpoint.Full
	e.FullSnapshotTimer.Time(func() { full = snapshotFull(t, r.p.Flat, r.o) })
	snapDone()
	return e.fulls.persistInline(full)
}

// maybeRestorePeer re-validates the peer plane after a scheduled full
// landed at iteration t: with a durable base at t, at least one survivor,
// and a window deep enough to span a full period, per-iteration coverage
// is guaranteed going forward, so the engine leaves the storage fallback
// and climbs back to HealthOK. Deeper degradation rungs (diff or full
// writes failing) must heal through their own paths first.
func (e *Engine) maybeRestorePeer(t int64) {
	if !e.peerFallback.Load() || e.lastFullIter.Load() != t {
		return
	}
	if e.opts.Peer.Window < e.opts.FullEvery {
		return // the window cannot span a full period: stay on storage
	}
	if len(e.peers.Survivors()) == 0 {
		return // nobody left to hold the replicas
	}
	if t > 0 && !e.peers.Covered(t-1, t) {
		return // retains are still failing (drops/corruption): stay on storage
	}
	if e.Health() != HealthDegradedPeer {
		return
	}
	e.peerFallback.Store(false)
	if e.health.CompareAndSwap(int32(HealthDegradedPeer), int32(HealthOK)) {
		e.faults.Recoveries.Inc()
		e.peerRestores.Inc()
		e.events.Emit("health.recover", map[string]any{"to": HealthOK.String()})
		e.events.Emit("peer.restore", e.fields(map[string]any{
			"iter": t, "survivors": len(e.peers.Survivors()),
		}))
	}
}

// peerSnapshotter owns the storage fallback path: the DP chain consumer,
// which stays dormant (dropping nothing but its own open batches) while the
// peer plane is healthy and runs the standard batched differential chain
// while the fallback is engaged.
type peerSnapshotter struct {
	chainSnapshotter
}

func (s *peerSnapshotter) initialFull(rc *runCtx) error {
	// Synchronous: the peer plane's coverage base must exist before the
	// first coverage check at iteration 1.
	e := s.e
	var full *checkpoint.Full
	e.FullSnapshotTimer.Time(func() { full = snapshotFull(0, e.params[0].Flat, e.opts2[0]) })
	return e.fulls.persistInline(full)
}

func (s *peerSnapshotter) runEndFields(stats *RunStats) map[string]any {
	e := s.e
	return map[string]any{
		"iter": e.iter, "diff_writes": stats.DiffWrites, "full_writes": stats.FullWrites,
		"peer_fallback": e.peerFallback.Load(), "survivors": len(e.peers.Survivors()),
		"window_occupancy": e.peers.MinOccupancy(),
	}
}

func (s *peerSnapshotter) registerMetrics(reg *obs.Registry) {
	e := s.e
	s.chainSnapshotter.registerMetrics(reg)
	p := e.peers
	reg.FuncGauge("peer.window.depth", func() float64 { return float64(p.Depth()) })
	reg.FuncGauge("peer.window.occupancy", func() float64 { return float64(p.MinOccupancy()) })
	reg.FuncGauge("peer.survivors", func() float64 { return float64(len(p.Survivors())) })
	reg.FuncCounter("peer.fallbacks", e.peerFallbacks.Value)
	reg.FuncCounter("peer.restores", e.peerRestores.Value)
	reg.FuncCounter("peer.chaos.crashes", func() int64 { return p.ChaosCounters().Crashes })
	reg.FuncCounter("peer.chaos.drops", func() int64 { return p.ChaosCounters().Drops })
	reg.FuncCounter("peer.chaos.corruptions", func() int64 { return p.ChaosCounters().Corruptions })
}
