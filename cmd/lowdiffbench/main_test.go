package main

import (
	"bytes"
	"strings"
	"testing"

	"lowdiff/internal/obs"
)

// TestExperimentSecondsExport runs a quick experiment against a registry and
// checks the family it leaves in the Prometheus text: one
// bench_experiment_seconds histogram, with its _seconds suffix not doubled.
func TestExperimentSecondsExport(t *testing.T) {
	reg := obs.New()
	if _, err := runExperiment(reg, "fig1a"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE bench_experiment_seconds histogram\n",
		`bench_experiment_seconds_bucket{id="fig1a",le="+Inf"} 1`,
		`bench_experiment_seconds_count{id="fig1a"} 1`,
		"bench_experiments 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
	if strings.Contains(text, "_seconds_seconds") {
		t.Fatalf("doubled _seconds suffix in exposition:\n%s", text)
	}
}
