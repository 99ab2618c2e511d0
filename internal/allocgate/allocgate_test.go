package allocgate

import (
	"testing"
)

// recorder is a testing.TB that records a failure instead of failing.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Errorf(string, ...any) { r.failed = true }

var sink []byte

func TestCheck(t *testing.T) {
	alloc := func() { sink = make([]byte, 4096) }
	for _, tc := range []struct {
		name                string
		maxAllocs, maxBytes float64
		fail                bool
	}{
		{"within", 1, 4096, false},
		{"over allocs", 0.5, 1 << 20, true},
		{"over bytes", 10, 2048, true},
	} {
		r := &recorder{TB: t}
		Check(r, 20, tc.maxAllocs, tc.maxBytes, alloc)
		if r.failed != tc.fail {
			t.Errorf("%s: failed = %v, want %v", tc.name, r.failed, tc.fail)
		}
	}
}
