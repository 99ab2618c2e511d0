// Package core implements the paper's primary contribution: the LowDiff
// frequent-checkpointing framework (§4) and its LowDiff+ enhancement (§5).
//
// The pieces map one-to-one onto the paper's architecture figure:
//
//   - ReusingQueue (§4.1): the FIFO, zero-copy hand-off of synchronized
//     compressed gradients from the training process to the checkpointing
//     process.
//   - BatchedWriter (§4.2): CPU-side accumulation of differential
//     checkpoints into a single batched write.
//   - Config (§4.3): the closed-form optimal full-checkpoint frequency and
//     batching size, Eq. (5), plus an adaptive stepwise tuner.
//   - Engine (§4, §6.1): the functional distributed trainer wiring workers,
//     gradient compression, synchronization, the queue, and the
//     checkpointer together; Options.Plus selects LowDiff+ (§5: layer-wise
//     gradient reuse and snapshotting with a CPU-resident model replica and
//     asynchronous persistence), Options.PP pipeline-parallel stages.
package core

import (
	"errors"
	"fmt"
	"sync"

	"lowdiff/internal/compress"
	"lowdiff/internal/metrics"
)

// Item is one queue element: the synchronized compressed gradient of one
// iteration (or of one layer, in the LowDiff+ layer-wise mode).
type Item struct {
	Iter  int64 // iteration the gradient was produced in (1-based)
	Layer int   // layer index for layer-wise reuse; -1 for whole-model items
	Grad  *compress.Compressed
}

// ErrQueueClosed is returned by Put after Close and by Get once the queue
// is closed and drained.
var ErrQueueClosed = errors.New("core: reusing queue closed")

// ReusingQueue is the bounded FIFO connecting training to checkpointing
// (paper §4.1). Hand-off is zero-copy: only the *compress.Compressed
// pointer crosses; gradients are immutable after synchronization, which is
// what makes the share safe (the same property CUDA IPC handles give the
// paper's implementation). The bound provides back-pressure: if the
// checkpointer cannot keep up, Put blocks, surfacing the stall instead of
// accumulating unbounded GPU memory — the paper's Limitation 2.
type ReusingQueue struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	items    []Item
	capacity int
	closed   bool

	// Depth tracks occupancy with a high-water mark; Puts/Gets count
	// hand-offs; BlockedPuts counts Puts that found the queue full.
	Depth       metrics.Gauge
	Puts        metrics.Counter
	Gets        metrics.Counter
	BlockedPuts metrics.Counter
}

// NewReusingQueue returns a queue with the given capacity bound.
func NewReusingQueue(capacity int) (*ReusingQueue, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: queue capacity %d must be positive", capacity)
	}
	q := &ReusingQueue{capacity: capacity}
	q.notFull = sync.NewCond(&q.mu)
	q.notEmpty = sync.NewCond(&q.mu)
	return q, nil
}

// Cap returns the queue capacity.
func (q *ReusingQueue) Cap() int { return q.capacity }

// Len returns the instantaneous queue occupancy.
func (q *ReusingQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Put enqueues an item, blocking while the queue is full. It returns
// ErrQueueClosed if the queue is (or becomes) closed.
func (q *ReusingQueue) Put(it Item) error {
	if it.Grad == nil {
		return fmt.Errorf("core: queue put with nil gradient")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) >= q.capacity && !q.closed {
		q.BlockedPuts.Inc()
	}
	for len(q.items) >= q.capacity && !q.closed {
		q.notFull.Wait()
	}
	if q.closed {
		return ErrQueueClosed
	}
	q.items = append(q.items, it)
	q.Puts.Inc()
	q.Depth.Set(int64(len(q.items)))
	q.notEmpty.Signal()
	return nil
}

// Get dequeues the next item in FIFO order, blocking while the queue is
// empty. Once the queue is closed and drained it returns ErrQueueClosed.
func (q *ReusingQueue) Get() (Item, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	if len(q.items) == 0 {
		return Item{}, ErrQueueClosed
	}
	return q.popLocked(), nil
}

// TryGet dequeues without blocking; ok is false when the queue is empty.
func (q *ReusingQueue) TryGet() (Item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return Item{}, false
	}
	return q.popLocked(), true
}

func (q *ReusingQueue) popLocked() Item {
	it := q.items[0]
	// Shift without retaining the dequeued pointer.
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = Item{}
	q.items = q.items[:len(q.items)-1]
	q.Gets.Inc()
	q.Depth.Set(int64(len(q.items)))
	q.notFull.Signal()
	return it
}

// Close marks the queue closed. Blocked and future Puts fail with
// ErrQueueClosed; Gets drain remaining items and then fail. Close is
// idempotent.
func (q *ReusingQueue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notFull.Broadcast()
	q.notEmpty.Broadcast()
}
