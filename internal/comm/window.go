// Peer-replicated differential windows (Checkmate-style): the compressed
// gradients every rank already receives from the all-gather are retained in
// a bounded ring instead of discarded after merge, so each peer's memory
// holds the last W differentials for free. With the periodic full checkpoint
// as the base, any surviving peer's window can reconstruct a crashed
// worker's state without a single per-iteration storage write.
package comm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"lowdiff/internal/compress"
	"lowdiff/internal/obs"
)

// castagnoli is the CRC-32C table shared with the checkpoint wire format:
// window entries are checksummed at retain time and re-verified at read
// time, so in-memory corruption (or injected chaos) is detected before a
// payload is ever replayed into a recovered state.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrWindowGap reports that a window cannot produce a contiguous, valid
// run of differentials for the requested iteration range.
var ErrWindowGap = errors.New("comm: window does not cover the requested range")

// ErrPayloadCorrupt reports a retained payload whose checksum no longer
// verifies.
var ErrPayloadCorrupt = errors.New("comm: retained payload failed checksum verification")

// crcWriter folds written bytes into a running CRC-32C via crc32.Update —
// bit-identical to crc32.New/Write/Sum32 without the hash.Hash32 heap
// allocation that would otherwise happen on every retain.
type crcWriter struct{ sum uint32 }

func (w *crcWriter) Write(p []byte) (int, error) {
	w.sum = crc32.Update(w.sum, castagnoli, p)
	return len(p), nil
}

var crcPool = sync.Pool{New: func() any { return new(crcWriter) }}

// payloadCRC checksums a compressed gradient via its wire encoding, so the
// digest covers every field the checkpoint format would persist.
func payloadCRC(c *compress.Compressed) uint32 {
	w := crcPool.Get().(*crcWriter)
	w.sum = 0
	// The CRC writer never fails; Encode errors are impossible here
	// (codec names are short by construction).
	_ = c.Encode(w)
	sum := w.sum
	crcPool.Put(w)
	return sum
}

// windowEntry is one retained differential plus its integrity state.
type windowEntry struct {
	iter int64
	grad *compress.Compressed
	crc  uint32

	checked bool // lazy verification memo
	valid   bool
}

// Window is a bounded ring of retained compressed differentials, indexed by
// iteration. Retaining iteration t evicts iteration t-depth; dropped or
// corrupted retains leave holes that coverage queries report honestly.
// All methods are safe for concurrent use.
type Window struct {
	mu      sync.Mutex
	depth   int
	entries []windowEntry
	newest  int64 // newest iteration ever retained (0: none yet)

	// Retained/Evicted/Corrupt count ring traffic for occupancy metrics.
	Retained obs.Counter
	Evicted  obs.Counter
	Corrupt  obs.Counter
}

// NewWindow returns an empty ring of the given depth (>= 1).
func NewWindow(depth int) (*Window, error) {
	if depth < 1 {
		return nil, fmt.Errorf("comm: window depth %d must be >= 1", depth)
	}
	return &Window{depth: depth, entries: make([]windowEntry, depth)}, nil
}

// Depth returns the ring capacity W.
func (w *Window) Depth() int { return w.depth }

// Retain stores the differential for iteration t (> 0), evicting whatever
// occupied its ring slot. The payload is checksummed now and verified again
// on every read; the gradient is retained zero-copy (synchronized gradients
// are immutable after the all-gather), which is exactly the paper's "free
// replica" property.
func (w *Window) Retain(iter int64, grad *compress.Compressed) error {
	if iter <= 0 {
		return fmt.Errorf("comm: retain iteration %d must be positive", iter)
	}
	if grad == nil {
		return fmt.Errorf("comm: retain of nil gradient at iteration %d", iter)
	}
	crc := payloadCRC(grad)
	w.mu.Lock()
	slot := &w.entries[iter%int64(w.depth)]
	if slot.grad != nil {
		w.Evicted.Inc()
	}
	*slot = windowEntry{iter: iter, grad: grad, crc: crc, checked: true, valid: true}
	if iter > w.newest {
		w.newest = iter
	}
	w.mu.Unlock()
	w.Retained.Inc()
	return nil
}

// Clear drops every retained entry (a crashed worker's memory is gone).
func (w *Window) Clear() {
	w.mu.Lock()
	for i := range w.entries {
		w.entries[i] = windowEntry{}
	}
	w.newest = 0
	w.mu.Unlock()
}

// lookup returns the entry for iter after lazy checksum verification:
// present reports whether the slot holds that iteration at all, and the
// gradient is non-nil only when it is present and its checksum verifies.
// Callers hold w.mu.
func (w *Window) lookup(iter int64) (grad *compress.Compressed, present bool) {
	e := &w.entries[iter%int64(w.depth)]
	if e.grad == nil || e.iter != iter {
		return nil, false
	}
	if !e.checked {
		e.valid = payloadCRC(e.grad) == e.crc
		e.checked = true
		if !e.valid {
			w.Corrupt.Inc()
		}
	}
	if !e.valid {
		return nil, true
	}
	return e.grad, true
}

// corrupt marks the retained entry for iter as damaged without touching the
// stored gradient's original checksum, so reads detect the mismatch. It is
// the chaos injection hook.
func (w *Window) corrupt(iter int64, grad *compress.Compressed) {
	w.mu.Lock()
	slot := &w.entries[iter%int64(w.depth)]
	if slot.grad != nil && slot.iter == iter {
		slot.grad = grad
		slot.checked = false
	}
	w.mu.Unlock()
}

// Newest returns the newest retained iteration (0 when empty).
func (w *Window) Newest() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.newest
}

// Occupancy returns how many valid, verifiable entries the ring holds.
func (w *Window) Occupancy() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for i := range w.entries {
		e := &w.entries[i]
		if e.grad == nil {
			continue
		}
		if g, _ := w.lookup(e.iter); g != nil {
			n++
		}
	}
	return n
}

// NewestCovered returns the largest iteration t such that every iteration
// in (base, t] is present and valid. It returns base when the window cannot
// extend the base at all (hole at base+1, or the window has wrapped past it).
func (w *Window) NewestCovered(base int64) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := base
	for {
		if g, _ := w.lookup(t + 1); g == nil {
			return t
		}
		t++
	}
}

// Covers reports whether every iteration in (base, target] is present and
// valid. An empty range is trivially covered.
func (w *Window) Covers(base, target int64) bool {
	if target <= base {
		return true
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for t := base + 1; t <= target; t++ {
		if g, _ := w.lookup(t); g == nil {
			return false
		}
	}
	return true
}

// Slice returns the retained differentials for (base, target] in iteration
// order, verifying every checksum. It fails with ErrWindowGap on a hole and
// ErrPayloadCorrupt when an entry's checksum no longer matches.
func (w *Window) Slice(base, target int64) ([]*compress.Compressed, error) {
	if target < base {
		return nil, fmt.Errorf("comm: window slice (%d, %d]: inverted range", base, target)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*compress.Compressed, 0, target-base)
	for t := base + 1; t <= target; t++ {
		g, present := w.lookup(t)
		if g == nil {
			if present {
				return nil, fmt.Errorf("comm: window slice (%d, %d]: iteration %d: %w", base, target, t, ErrPayloadCorrupt)
			}
			return nil, fmt.Errorf("comm: window slice (%d, %d]: iteration %d missing: %w", base, target, t, ErrWindowGap)
		}
		out = append(out, g)
	}
	return out, nil
}
