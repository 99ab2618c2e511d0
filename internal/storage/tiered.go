package storage

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Tiered is a two-tier store: a bounded in-memory hot tier in front of a
// cold backing store (typically File). Writes commit into the hot tier;
// when hot usage crosses the high watermark, the oldest hot objects spill
// to the cold tier until usage is back under the low watermark — the
// Portus-style "storage pool" shape where the newest checkpoints of every
// tenant sit in fast memory and history ages out to disk. Reads check the
// hot tier first and fall through to cold. The split is invisible to
// callers: List merges both tiers and an object lives in exactly the tier
// that last committed it.
type Tiered struct {
	cold Store
	high int64
	low  int64

	mu       sync.Mutex
	hot      map[string][]byte
	order    []string // hot names in commit order (oldest first)
	hotBytes int64

	evictions  atomic.Int64
	spillBytes atomic.Int64
}

// NewTiered wraps cold with a hot in-memory tier. Eviction starts when hot
// bytes exceed highWater and stops at or below lowWater.
func NewTiered(cold Store, highWater, lowWater int64) (*Tiered, error) {
	if cold == nil {
		return nil, fmt.Errorf("storage: tiered store needs a cold tier")
	}
	if highWater <= 0 || lowWater <= 0 || lowWater > highWater {
		return nil, fmt.Errorf("storage: tiered watermarks low %d / high %d must satisfy 0 < low <= high",
			lowWater, highWater)
	}
	return &Tiered{cold: cold, high: highWater, low: lowWater, hot: map[string][]byte{}}, nil
}

// HotBytes returns the current hot-tier usage.
func (t *Tiered) HotBytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hotBytes
}

// Evictions returns how many objects have spilled to the cold tier.
func (t *Tiered) Evictions() int64 { return t.evictions.Load() }

// SpilledBytes returns the total bytes spilled to the cold tier.
func (t *Tiered) SpilledBytes() int64 { return t.spillBytes.Load() }

// Create implements Store. The object is staged in memory and committed
// into the hot tier on Close (with the same latched-error abort contract
// as the other writers), then eviction runs if the hot tier overflowed.
// A staging buffer that ended exactly full becomes the hot copy as it is;
// one that grew by appending is copied, so its slack is not kept hot.
func (t *Tiered) Create(name string) (io.WriteCloser, error) {
	if err := CheckName(name); err != nil {
		return nil, err
	}
	return &memWriter{commit: func(data []byte) {
		if len(data) != cap(data) {
			data = append([]byte(nil), data...)
		}
		t.commit(name, data)
	}}, nil
}

// commit publishes one object into the hot tier and evicts as needed.
func (t *Tiered) commit(name string, data []byte) {
	t.mu.Lock()
	if old, ok := t.hot[name]; ok {
		t.hotBytes -= int64(len(old))
		t.dropFromOrder(name)
	}
	t.hot[name] = data
	t.order = append(t.order, name)
	t.hotBytes += int64(len(data))
	var spill []string
	if t.hotBytes > t.high {
		// Choose victims oldest-first until the projected usage is back
		// under the low watermark. The just-committed object can itself be
		// chosen when it alone exceeds the budget.
		projected := t.hotBytes
		for _, victim := range t.order {
			if projected <= t.low {
				break
			}
			spill = append(spill, victim)
			projected -= int64(len(t.hot[victim]))
		}
	}
	t.mu.Unlock()
	for _, victim := range spill {
		t.evict(victim)
	}
}

// dropFromOrder removes one name from the commit-order list (caller holds
// t.mu).
func (t *Tiered) dropFromOrder(name string) {
	for i, n := range t.order {
		if n == name {
			t.order = append(t.order[:i], t.order[i+1:]...)
			return
		}
	}
}

// evict spills one hot object to the cold tier. A cold-tier write failure
// leaves the object where it was — the hot tier may run above its
// watermark, but no data is lost.
func (t *Tiered) evict(name string) {
	t.mu.Lock()
	data, ok := t.hot[name]
	t.mu.Unlock()
	if !ok {
		return // deleted or re-committed concurrently
	}
	if err := WriteObject(t.cold, name, data); err != nil {
		return
	}
	t.mu.Lock()
	// Only drop the hot copy if it is still the bytes we spilled; a
	// concurrent re-commit supersedes the cold copy. Empty objects carry
	// no identity, but dropping either empty copy is equivalent.
	sameBytes := func(cur []byte) bool {
		if len(cur) == 0 || len(data) == 0 {
			return len(cur) == 0 && len(data) == 0
		}
		return &cur[0] == &data[0]
	}
	if cur, ok := t.hot[name]; ok && sameBytes(cur) {
		delete(t.hot, name)
		t.dropFromOrder(name)
		t.hotBytes -= int64(len(data))
		t.evictions.Add(1)
		t.spillBytes.Add(int64(len(data)))
	}
	t.mu.Unlock()
}

// Open implements Store.
func (t *Tiered) Open(name string) (io.ReadCloser, error) {
	t.mu.Lock()
	data, ok := t.hot[name]
	t.mu.Unlock()
	if ok {
		return io.NopCloser(bytes.NewReader(data)), nil
	}
	return t.cold.Open(name)
}

// List implements Store, merging both tiers.
func (t *Tiered) List(prefix string) ([]string, error) {
	coldNames, err := t.cold.List(prefix)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	seen := make(map[string]bool, len(coldNames))
	out := make([]string, 0, len(coldNames))
	for _, n := range coldNames {
		seen[n] = true
		out = append(out, n)
	}
	for _, n := range t.order {
		if !seen[n] && len(n) >= len(prefix) && n[:len(prefix)] == prefix {
			out = append(out, n)
		}
	}
	t.mu.Unlock()
	sort.Strings(out)
	return out, nil
}

// Delete implements Store. The object is removed from whichever tiers hold
// it; it is an error only if neither does.
func (t *Tiered) Delete(name string) error {
	t.mu.Lock()
	data, inHot := t.hot[name]
	if inHot {
		delete(t.hot, name)
		t.dropFromOrder(name)
		t.hotBytes -= int64(len(data))
	}
	t.mu.Unlock()
	err := t.cold.Delete(name)
	if err != nil && IsNotExist(err) && inHot {
		return nil // hot-only object; the cold tier never saw it
	}
	return err
}

// Size implements Store.
func (t *Tiered) Size(name string) (int64, error) {
	t.mu.Lock()
	data, ok := t.hot[name]
	t.mu.Unlock()
	if ok {
		return int64(len(data)), nil
	}
	return t.cold.Size(name)
}
