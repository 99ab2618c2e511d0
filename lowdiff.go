// Package lowdiff is a from-scratch Go implementation of LowDiff
// (Yao et al., SC 2025): efficient frequent checkpointing for distributed
// training via low-cost differentials that reuse compressed gradients.
//
// The package is organised as a functional training/checkpointing stack
// plus a calibrated performance simulator:
//
//   - Train / TrainOptions run a real data-parallel training loop
//     (float32 tensors, Adam/SGD, Top-K compression, ring collectives)
//     with LowDiff checkpointing: a reusing queue hands synchronized
//     compressed gradients to an asynchronous checkpointer that batches
//     differential writes and persists periodic full checkpoints.
//   - TrainPlus runs the LowDiff+ variant on the same engine: no
//     compression, layer-wise gradient snapshotting into a CPU-resident
//     replica (Engine.Replica) with asynchronous persistence, and in-memory
//     recovery from software failures. TrainPP runs pipeline-parallel
//     stages.
//   - Recover rebuilds training state from a checkpoint store: the latest
//     full checkpoint plus its differential chain, replayed in order (bit-exact
//     for unbatched differentials).
//   - Tune computes the closed-form optimal full-checkpoint frequency and
//     batching size from the paper's wasted-time model (Eq. 5).
//   - The simulator (internal/cluster, surfaced through the deterministic
//     experiments in cmd/lowdiffbench) reproduces every table and figure
//     of the paper's evaluation. The functional stack is timed only by
//     the paired workloads in bench/.
//
// See examples/ for runnable end-to-end scenarios.
package lowdiff

import (
	"fmt"

	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
)

// Re-exported configuration and result types. Aliases keep the single
// source of truth in the internal packages.
type (
	// TrainOptions configures a training engine; its Plus and PP fields
	// select the LowDiff+ and pipeline-parallel strategies.
	TrainOptions = core.Options
	// PlusSpec holds the LowDiff+ knobs of TrainOptions.
	PlusSpec = core.PlusSpec
	// PPSpec holds the pipeline-parallel knobs of TrainOptions.
	PPSpec = core.PPSpec
	// Engine is the functional trainer, whatever the strategy.
	Engine = core.Engine
	// RunStats summarizes an Engine.Run call.
	RunStats = core.RunStats
	// SystemParams are the wasted-time model constants (paper §4.3).
	SystemParams = core.SystemParams
	// Config is a (frequency, batching size) checkpointing configuration.
	Config = core.Config
	// RecoveredState is a training state rebuilt from checkpoints.
	RecoveredState = recovery.State
	// Spec describes a model's layer structure.
	Spec = model.Spec
	// Store is the checkpoint object store interface.
	Store = storage.Store
)

// Train builds a LowDiff training engine.
func Train(opts TrainOptions) (*Engine, error) { return core.NewEngine(opts) }

// TrainPlus builds a LowDiff+ training engine; a nil opts.Plus takes the
// PlusSpec defaults.
func TrainPlus(opts TrainOptions) (*Engine, error) {
	if opts.Plus == nil {
		opts.Plus = &PlusSpec{}
	}
	return core.NewEngine(opts)
}

// TrainPP builds a pipeline-parallel LowDiff engine: layers are
// partitioned into opts.PP.Stages contiguous stages, each stage checkpoints
// its slice gradient, and a coordinator assembles one differential per
// iteration.
func TrainPP(opts TrainOptions) (*Engine, error) {
	if opts.PP == nil {
		return nil, fmt.Errorf("lowdiff: TrainPP needs TrainOptions.PP")
	}
	return core.NewEngine(opts)
}

// Resume builds an engine that continues training from a recovered state:
// all workers start from the state's parameters and optimizer, and
// iteration numbering picks up where the failed job stopped.
func Resume(opts TrainOptions, state *RecoveredState) (*Engine, error) {
	return core.ResumeEngine(opts, state.Params, state.Opt, state.Iter)
}

// Recover rebuilds the newest reachable training state from store by
// loading the latest full checkpoint and replaying the differential chain in
// order, with loads overlapped and kernels sharded over every processor. The
// replay is bit-exact for unbatched differentials.
func Recover(store Store) (*RecoveredState, int, error) { return recovery.Latest(store) }

// Compact folds the store's newest recoverable state into a fresh full
// checkpoint and garbage-collects superseded records (log compaction for
// checkpoint stores), bounding future recovery cost without involving the
// training job.
func Compact(store Store) (*RecoveredState, int, error) { return recovery.Compact(store) }

// Tune returns the closed-form optimal checkpointing configuration
// (full-checkpoint frequency f*, batching size b*) for the given system
// parameters — the paper's Eq. (5).
func Tune(p SystemParams) (Config, error) { return p.Optimal() }

// NewFileStore opens (creating if needed) a directory-backed checkpoint
// store with atomic object writes.
func NewFileStore(dir string) (Store, error) { return storage.NewFile(dir) }

// NewMemStore returns an in-memory checkpoint store.
func NewMemStore() Store { return storage.NewMem() }

// Models returns the paper's workload zoo (ResNet-50/101, VGG-16/19,
// BERT-B/L, GPT2-S/L) with parameter counts matching the paper's table.
func Models() []Spec { return model.Registry() }

// ModelByName looks up a zoo model (e.g. "GPT2-L").
func ModelByName(name string) (Spec, error) { return model.ByName(name) }
