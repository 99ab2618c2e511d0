package core

import (
	"fmt"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/compress"
	"lowdiff/internal/obs"
	"lowdiff/internal/storage"
	"lowdiff/internal/trace"
)

// BatchedWriter implements the batched gradient writing optimization
// (paper §4.2): compressed gradients arriving from the reusing queue are
// offloaded to CPU-side buffers (step 1), accumulated until the batching
// size is reached (step 2), and persisted as a single differential
// checkpoint covering the whole range in one write (step 3).
//
// Accumulation uses sparse union-sum (gradient accumulation), so a batch
// of b gradients costs one store write of roughly union-size instead of b
// writes — the effect Exp. 6(a) measures. A batch never spans a full
// checkpoint boundary: Cut flushes the open batch so recovery chains stay
// aligned with full checkpoints.
type BatchedWriter struct {
	store     storage.Store
	batchSize int
	kind      checkpoint.DiffKind

	pending   []*compress.Compressed
	firstIter int64
	lastIter  int64

	// Retry, when non-nil, wraps each store write in the retry policy;
	// OnRetry (may be nil) observes every retried attempt. Set both
	// before the first Add.
	Retry   *RetryPolicy
	OnRetry func(attempt int, err error)

	// Events, when non-nil, receives a ckpt.diff.persist event for every
	// flushed batch. Set it before the first Add.
	Events *obs.EventLog

	// Trace, when non-nil, records checkpoint/merge and persist/diff-write
	// spans for every flushed batch. Set it before the first Add.
	Trace *trace.Recorder

	// Writes counts store writes, Batches full-size flushes, Bytes the
	// payload bytes persisted; PendingBytes gauges CPU-buffer occupancy
	// (the memory offloaded from GPU, Exp. 6(b)).
	Writes       obs.Counter
	Batches      obs.Counter
	Bytes        obs.Counter
	PendingBytes obs.Gauge
}

// NewBatchedWriter returns a writer that persists to store, flushing every
// batchSize gradients. batchSize 1 disables batching (every differential is
// written immediately).
func NewBatchedWriter(store storage.Store, batchSize int, kind checkpoint.DiffKind) (*BatchedWriter, error) {
	if store == nil {
		return nil, fmt.Errorf("core: batched writer needs a store")
	}
	if batchSize < 1 {
		return nil, fmt.Errorf("core: batch size %d must be >= 1", batchSize)
	}
	if kind != checkpoint.KindGradient && kind != checkpoint.KindStateDelta {
		return nil, fmt.Errorf("core: invalid diff kind %v", kind)
	}
	return &BatchedWriter{store: store, batchSize: batchSize, kind: kind}, nil
}

// Add offloads one differential (the gradient of iteration iter) into the
// CPU buffer, flushing if the batch is complete. Iterations must arrive in
// increasing contiguous order within a batch.
func (w *BatchedWriter) Add(iter int64, grad *compress.Compressed) error {
	if grad == nil {
		return fmt.Errorf("core: batched writer got nil gradient")
	}
	if len(w.pending) == 0 {
		w.firstIter = iter
	} else if iter != w.lastIter+1 {
		return fmt.Errorf("core: non-contiguous differential: got iter %d after %d", iter, w.lastIter)
	}
	w.lastIter = iter
	w.pending = append(w.pending, grad)
	w.PendingBytes.Add(grad.Bytes())
	if len(w.pending) >= w.batchSize {
		w.Batches.Inc()
		return w.flush()
	}
	return nil
}

// Cut flushes any open partial batch (used at full-checkpoint boundaries
// and shutdown).
func (w *BatchedWriter) Cut() error {
	if len(w.pending) == 0 {
		return nil
	}
	return w.flush()
}

// Pending returns the number of buffered, unflushed gradients.
func (w *BatchedWriter) Pending() int { return len(w.pending) }

// Drop discards the buffered batch without persisting it. The next Add
// starts a fresh batch at whatever iteration it carries — used when a
// persistent write failure makes the open batch unrecoverable and the
// engine falls back to a full checkpoint as the new chain base.
func (w *BatchedWriter) Drop() {
	w.pending = w.pending[:0]
	w.PendingBytes.Set(0)
}

func (w *BatchedWriter) flush() error {
	mergeDone := w.Trace.Begin2(trace.TrackCheckpoint, trace.PhaseMerge,
		"iter", w.lastIter, "count", int64(len(w.pending)))
	merged, err := compress.Merge(w.pending...)
	mergeDone()
	if err != nil {
		return fmt.Errorf("core: batch merge: %w", err)
	}
	d := &checkpoint.Diff{
		Kind:      w.kind,
		FirstIter: w.firstIter,
		LastIter:  w.lastIter,
		Count:     int32(len(w.pending)),
		Payload:   merged,
	}
	persist := func() error {
		_, err := checkpoint.SaveDiff(w.store, d)
		return err
	}
	writeDone := w.Trace.Begin2(trace.TrackPersist, trace.PhaseDiffWrite,
		"iter", w.lastIter, "first", w.firstIter)
	if w.Retry != nil {
		err = w.Retry.Do(persist, w.OnRetry)
	} else {
		err = persist()
	}
	writeDone()
	if err != nil {
		return fmt.Errorf("core: batch write: %w", err)
	}
	w.Writes.Inc()
	w.Bytes.Add(merged.Bytes())
	w.PendingBytes.Set(0)
	w.Events.Emit("ckpt.diff.persist", map[string]any{
		"first": d.FirstIter, "last": d.LastIter,
		"count": len(w.pending), "bytes": merged.Bytes(),
	})
	w.pending = w.pending[:0]
	return nil
}
