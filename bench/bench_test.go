package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestQuick takes every workload through both run modes at smoke scale with
// every correctness check on, and holds what each mode prints to the names
// and units BENCHMARK.json declares. It asserts no timing.
func TestQuick(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(file.Workloads), len(workloads))
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the harness %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if got := file.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	for i, m := range perLayer {
		if got := file.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s [%s], the harness %s [%s]", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q, or their reasons differ", i, file.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(config{workload: w.name, seed: 1, seconds: 1, quick: true, trace: traced, tmp: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, the table lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := res.Metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.name, traced, m.name)
				}
			}
		}
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}
