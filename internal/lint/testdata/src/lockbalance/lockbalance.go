// Package lockbalance is a lint fixture for path-sensitive Lock/Unlock
// pairing: plain leaks of write and read locks, leaks that exist on only
// one control-flow path, double write-locks, and the balanced shapes —
// deferred release before an early return, per-branch release, defer
// inside a per-iteration literal — that a whole-body check cannot tell
// apart. (Locks copied by value are go vet's copylocks.)
package lockbalance

import "sync"

// Counter is the guarded fixture type.
type Counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// Leak locks without ever unlocking (violation).
func (c *Counter) Leak() {
	c.mu.Lock()
	c.n++
}

// ReadLeak never releases the read lock (violation).
func (c *Counter) ReadLeak() int {
	c.rw.RLock()
	return c.n
}

// ReadBalanced pairs RLock with a deferred RUnlock (allowed).
func (c *Counter) ReadBalanced() int {
	c.rw.RLock()
	defer c.rw.RUnlock()
	return c.n
}

// LeakOnOnePath unlocks on the fall-through path but not before the early
// return (violation: leak on the n < 0 path).
func (c *Counter) LeakOnOnePath() int {
	c.mu.Lock()
	if c.n < 0 {
		return 0
	}
	c.mu.Unlock()
	return c.n
}

// DoubleLock re-locks a mutex the path already write-holds (violation:
// self-deadlock).
func (c *Counter) DoubleLock() {
	c.mu.Lock()
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	c.mu.Unlock()
}

// DeferThenEarlyReturn releases via defer on every path, including the
// early return (allowed).
func (c *Counter) DeferThenEarlyReturn() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < 0 {
		return 0
	}
	return c.n
}

// BranchBalanced releases explicitly on both branches (allowed).
func (c *Counter) BranchBalanced() int {
	c.mu.Lock()
	if c.n < 0 {
		c.mu.Unlock()
		return 0
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// DeferInLoop takes and releases the lock per iteration inside a function
// literal, the idiomatic defer-in-loop shape; each literal is its own
// balanced frame (allowed).
func (c *Counter) DeferInLoop(rounds int) {
	for i := 0; i < rounds; i++ {
		func() {
			c.mu.Lock()
			defer c.mu.Unlock()
			c.n++
		}()
	}
}

// SwitchBalanced releases the read lock in every switch case, with the
// default falling through to a shared release (allowed).
func (c *Counter) SwitchBalanced(mode int) int {
	c.rw.RLock()
	switch mode {
	case 0:
		n := c.n
		c.rw.RUnlock()
		return n
	case 1:
		c.rw.RUnlock()
		return 0
	default:
		n := 2 * c.n
		c.rw.RUnlock()
		return n
	}
}

// helperUnlock releases a lock its caller acquired; an unlock with no
// matching hold is caller-owned and never reported (allowed).
func (c *Counter) helperUnlock() {
	c.n++
	c.mu.Unlock()
}

// PanicPathIgnored only leaks on the panic path, which is not a normal
// exit (allowed).
func (c *Counter) PanicPathIgnored() int {
	c.mu.Lock()
	if c.n < 0 {
		panic("negative counter")
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// SuppressedLeak carries a justified directive (allowed: suppressed).
func (c *Counter) SuppressedLeak() {
	c.mu.Lock() //lint:allow lockbalance fixture: released by helperUnlock after the caller's barrier
	c.n++
}

// SnapshotHandoff mirrors the overlap schedule's replica hand-off: the
// snapshot is taken under the lock, but the blocking rendezvous with
// the persister happens strictly after the release, on every path
// (allowed).
func (c *Counter) SnapshotHandoff(persist chan<- int) {
	c.mu.Lock()
	snap := c.n
	ready := c.n%2 == 0
	c.mu.Unlock()
	if ready {
		persist <- snap
	}
}

// DoubleBufferTurns alternates between a guarded and an unguarded
// buffer slot; whichever branch runs, the write lock acquired at the
// top is released exactly once before the function blocks on the
// rendezvous channel (allowed).
func (c *Counter) DoubleBufferTurns(turn int, ready chan<- struct{}) int {
	c.rw.Lock()
	var n int
	if turn%2 == 0 {
		n = c.n
		c.rw.Unlock()
	} else {
		n = 2 * c.n
		c.rw.Unlock()
	}
	ready <- struct{}{}
	return n
}
