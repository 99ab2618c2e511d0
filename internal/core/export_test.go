package core

import (
	"runtime"
	"testing"
	"time"
)

// joinFulls waits for the full persists still in flight, for tests that read
// the store after Run and do not want what Flush adds (the batch cut, the
// LowDiff+ replica tail, the retention pass). It reports no persist error:
// that stays with the engine for the next Run or Flush.
func (e *Engine) joinFulls() { e.fulls.join() }

// quiesce, called first in a test, requires at the test's end that nothing
// the test started is still running: the goroutine count must come back to
// what it was, with no call from the test to make it — an engine's persister
// outlives Run and exits by itself once its queue is empty. Every Plus and
// Peer test calls it, so an offload pool or persister that outlives its work
// fails the test that leaked it.
func quiesce(t testing.TB) {
	t.Helper()
	start := runtime.NumGoroutine()
	t.Cleanup(func() {
		if !settled(start) {
			t.Errorf("%d goroutines at the end of the test, %d at its start", runtime.NumGoroutine(), start)
		}
	})
}

// settled waits for the goroutine count to come back down to want.
func settled(want int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}
