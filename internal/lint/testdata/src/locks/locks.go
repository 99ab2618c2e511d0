// Package locks is a lint fixture for lock misuse: Lock/RLock calls with no
// paired release. (Locks copied by value are go vet's copylocks.)
package locks

import "sync"

// Guarded carries the write-lock cases.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// Leak locks without ever unlocking (violation: lockbalance).
func (g *Guarded) Leak() {
	g.mu.Lock()
	g.n++
}

// Balanced pairs Lock with a deferred Unlock (allowed).
func (g *Guarded) Balanced() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Inline pairs Lock with a plain Unlock (allowed).
func (g *Guarded) Inline() int {
	g.mu.Lock()
	n := g.n
	g.mu.Unlock()
	return n
}

// RW carries the read-lock cases.
type RW struct {
	mu sync.RWMutex
	n  int
}

// ReadLeak never releases the read lock (violation: lockbalance).
func (r *RW) ReadLeak() int {
	r.mu.RLock()
	return r.n
}

// ReadBalanced pairs RLock with a deferred RUnlock (allowed).
func (r *RW) ReadBalanced() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.n
}
