// Package allocgate holds a package's allocation figures in its own
// tests. A gate runs an operation a fixed number of times and fails when
// it allocates more, per call, than its bound: more heap objects or more
// bytes. Allocation counts are a property of the code, not of the
// machine, so the bounds are plain constants in the owning package's
// tests. Only tests import this package.
package allocgate

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// Check runs op once to warm it up, then n times between two
// runtime.ReadMemStats calls, and fails t if the mean Mallocs or
// TotalAlloc per call is over maxAllocs or maxBytes. It skips under the
// race detector, where sync.Pool drops a share of its Puts at random and
// every pooled buffer becomes a fresh allocation.
//
// Warm-up and measurement run at GOMAXPROCS 1, as testing.AllocsPerRun
// runs: a sync.Pool keeps each P's last Put in a slot no other P can take,
// so a goroutine that the scheduler moves to another P between a Put and
// the next Get finds the pool empty and allocates, although nothing was
// collected. The collector is off for the same interval, and turning it
// off waits out a collection already running; the runtime's cleanup after
// a collection allocates, so one yield before the first read lets the last
// collection's cleanup run outside the measured interval.
func Check(t testing.TB, n int, maxAllocs, maxBytes float64, op func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocgate: allocation figures do not hold under -race (sync.Pool drops Puts at random)")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	op()
	runtime.Gosched()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(n)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%.1f allocs/op, %.0f B/op over %d calls (bounds %g, %.0f)", allocs, bytes, n, maxAllocs, maxBytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("allocation regressed: %.1f allocs/op (bound %g), %.0f B/op (bound %.0f) over %d calls",
			allocs, maxAllocs, bytes, maxBytes, n)
	}
}
