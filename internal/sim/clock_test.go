package sim

import (
	"bytes"
	"testing"
	"time"

	"lowdiff/internal/trace"
)

// TestVirtualTimeChromeTraceDeterministic drives a trace recorder from a
// virtual clock that follows a device's completion times: spans land at
// virtual offsets, so two identical runs encode byte-identical Chrome
// traces — no wall time leaks in.
func TestVirtualTimeChromeTraceDeterministic(t *testing.T) {
	run := func() []byte {
		var now float64
		epoch := time.Unix(0, 0).UTC()
		rec := trace.NewWithClock(func() time.Time { return epoch.Add(time.Duration(now * float64(time.Second))) })
		dev, err := NewResource("ssd", 1e6)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			now = float64(i) * 0.1
			done := rec.Begin("train", "iteration", map[string]interface{}{"iter": i})
			end, err := dev.Submit(now, 5e4)
			if err != nil {
				t.Fatal(err)
			}
			now = end
			done()
		}
		var buf bytes.Buffer
		if err := rec.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("virtual-time Chrome traces differ:\n%s\nvs\n%s", a, b)
	}
}
