// Package allocgate holds a package's allocation figures in its own
// tests. A gate runs an operation a fixed number of times and fails when
// it allocates more, per call, than its bound: more heap objects or more
// bytes. Allocation counts are a property of the code, not of the
// machine, so the bounds are plain constants in the owning package's
// tests. Only tests import this package.
package allocgate

import (
	"runtime"
	"testing"
)

// Check runs op once to warm it up, then n times between two
// runtime.ReadMemStats calls, and fails t if the mean Mallocs or
// TotalAlloc per call is over maxAllocs or maxBytes. It skips under the
// race detector, where sync.Pool drops a share of its Puts at random and
// every pooled buffer becomes a fresh allocation.
func Check(t testing.TB, n int, maxAllocs, maxBytes float64, op func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocgate: allocation figures do not hold under -race (sync.Pool drops Puts at random)")
	}
	op()
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
