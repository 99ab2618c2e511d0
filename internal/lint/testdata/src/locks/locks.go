// Package locks is a lint fixture for lock misuse: signatures that copy
// sync locks by value, and Lock/RLock calls with no paired release.
package locks

import "sync"

// Guarded embeds a mutex by value, which is fine for the type itself —
// only signatures that copy it are flagged.
type Guarded struct {
	mu sync.Mutex
	n  int
}

// ByValueReceiver copies the receiver's lock (violation: receiver).
func (g Guarded) ByValueReceiver() int {
	return g.n
}

// TakeLock copies a bare mutex parameter (violation: parameter).
func TakeLock(mu sync.Mutex) {
	_ = mu
}

// TakeStruct copies a struct containing a lock (violation: parameter).
func TakeStruct(g Guarded) int {
	return g.n
}

// GiveLock returns a lock by value (violation: result).
func GiveLock() sync.Mutex {
	return sync.Mutex{}
}

// ByPointer shares the lock (allowed).
func ByPointer(g *Guarded) int {
	return g.n
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
