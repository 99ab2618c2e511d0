package core

import (
	"lowdiff/internal/checkpoint"
	"lowdiff/internal/obs"
	"lowdiff/internal/optim"
	"lowdiff/internal/tensor"
)

// This file defines the strategy seams of the unified training pipeline.
//
// One Engine owns the canonical step loop (gradient → compress →
// all-reduce/all-gather → apply → checkpoint hand-off) and the shared
// full-checkpoint persistence path (retry ladder, GC, metrics). Everything
// that differs between the paper's variants is supplied through three small
// interfaces:
//
//   - Topology decides how many rank goroutines run the loop and what each
//     rank does per iteration: data-parallel workers stepping replicated
//     params (LowDiff §4, LowDiff+ §5) or pipeline-parallel stages stepping
//     disjoint StageRange slices (§6).
//   - Snapshotter owns the checkpoint side of the loop: the differential
//     chain consumer (LowDiff), the stage-merge coordinator (PP), or the
//     CPU-resident replica assembler (LowDiff+). All of them persist through
//     the shared pieces in plane.go: one chain sink, one full persister.
//   - Replica, when present, exposes the LowDiff+ CPU-resident copy for
//     in-memory recovery and resume.
//
// The interfaces are intentionally unexported-method-only: they are seams
// inside the core package, not an extension point for other packages.

// runCtx carries the per-Run plumbing shared between the engine loop, the
// topology's rank goroutines, and the snapshotter's consumer goroutines.
type runCtx struct {
	start int64 // iteration count at Run entry; ranks step start+1 … start+iters
	iters int
	errCh chan error // buffered ranks()+2; producers never block

	// queue is the bounded hand-off between trainer and checkpointer
	// (§4.2's gradient-reuse queue, or the LowDiff+ layer-snapshot queue).
	// It is created by the Snapshotter in begin when the strategy
	// checkpoints through a queue, and nil otherwise.
	queue *ReusingQueue
}

// Topology supplies the parallelism shape of a run: how many ranks train,
// and the per-iteration work each rank performs.
type Topology interface {
	// ranks is the number of trainer goroutines Run spawns.
	ranks() int
	// rankKey names the rank dimension in run.start events
	// ("workers" for data-parallel, "stages" for pipeline-parallel).
	rankKey() string
	// begin starts any topology-owned helper goroutines (e.g. the LowDiff+
	// layer-snapshot offload pool) before ranks spawn.
	begin(rc *runCtx)
	// newRank builds the per-goroutine runner for one rank. It is called
	// from the rank's own goroutine, so per-rank scratch buffers are
	// allocated without sharing.
	newRank(rc *runCtx, rank int) rankRunner
	// end tears down topology-owned helpers after every rank returned.
	end(rc *runCtx)
	registerMetrics(reg *obs.Registry)
}

// rankRunner executes one rank's iteration of the canonical step loop.
type rankRunner interface {
	step(rc *runCtx, t int64) error
}

// Snapshotter owns the checkpointing half of the pipeline: consumer
// goroutines fed by the step loop, the initial iteration-0 full checkpoint,
// and the strategy's slice of the run.end event.
type Snapshotter interface {
	// begin creates the strategy's queues/channels and starts consumer
	// goroutines. It may set rc.queue for the step loop to feed.
	begin(rc *runCtx) error
	// initialFull persists (or enqueues) the iteration-0 full checkpoint.
	// Called only when the run starts from iteration 0.
	initialFull(rc *runCtx) error
	// end closes the hand-off channels and waits for consumers to drain.
	end(rc *runCtx)
	// runEndFields returns the strategy-specific payload of the run.end
	// event (the engine adds its tag).
	runEndFields(stats *RunStats) map[string]any
	registerMetrics(reg *obs.Registry)
}

// Replica is the optional CPU-resident model copy maintained by the
// LowDiff+ strategy (§5): a full model+optimizer mirror advanced from
// offloaded layer gradients, recoverable without touching the store.
type Replica interface {
	// State clones the replica for in-memory recovery.
	State() *State
	// Iter is the last iteration fully applied to the replica.
	Iter() int64
	// PersistedIter is the newest replica iteration persisted to the store.
	PersistedIter() int64
	// persisted records a successful store persist of the given iteration.
	persisted(iter int64)
	// pendingFull returns a full checkpoint of replica progress not yet
	// persisted, or nil when the store is up to date (used by Flush).
	pendingFull() *checkpoint.Full
	// restore overwrites the replica from a recovered checkpoint.
	restore(params tensor.Vector, st optim.State, iter int64) error
}
