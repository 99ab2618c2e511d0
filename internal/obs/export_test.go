package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func exportFixture() *Registry {
	r := New()
	r.Counter("ckpt.diff.writes").Add(12)
	r.Counter("ckpt.diff.bytes", L("worker", "0")).Add(1024)
	r.Counter("ckpt.diff.bytes", L("worker", "1")).Add(2048)
	g := r.Gauge("queue.depth")
	g.Set(7)
	g.Set(3)
	r.Histogram("bench.experiment_seconds", DefBuckets, L("id", "fig1a")).Observe(0.25)
	h := r.Histogram("persist.latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)
	return r
}

func TestWriteJSONDeterministicAndInfSafe(t *testing.T) {
	var a, b bytes.Buffer
	if err := exportFixture().Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := exportFixture().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("JSON snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	// The +Inf bucket must round-trip as valid JSON.
	var decoded struct {
		Metrics []struct {
			Name    string `json:"name"`
			Buckets []struct {
				LE    string `json:"le"`
				Count int64  `json:"count"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON is invalid: %v\n%s", err, a.String())
	}
	found := false
	for _, m := range decoded.Metrics {
		for _, b := range m.Buckets {
			if b.LE == "+Inf" && m.Name == "persist.latency" {
				found = true
				if b.Count != 3 {
					t.Fatalf("+Inf bucket count = %d, want 3", b.Count)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no +Inf bucket in:\n%s", a.String())
	}
}

// TestWritePrometheusFormat validates the exposition text against the
// format's structural rules: every non-comment line is `name{labels} value`,
// families are contiguous, each family has exactly one # TYPE line, and
// histogram buckets are cumulative and +Inf-terminated.
func TestWritePrometheusFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := exportFixture().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	typeSeen := map[string]bool{}
	sampleFamily := map[string]bool{}
	var lastFamily string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			name, kind := parts[2], parts[3]
			if typeSeen[name] {
				t.Fatalf("duplicate TYPE for %s", name)
			}
			typeSeen[name] = true
			switch kind {
			case "counter", "gauge", "summary", "histogram":
			default:
				t.Fatalf("unknown TYPE %q in %q", kind, line)
			}
			lastFamily = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, value, err := parseSample(line)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		base := metricBase(name)
		if base != lastFamily {
			t.Fatalf("sample %q outside its TYPE block (family %q, last TYPE %q)", line, base, lastFamily)
		}
		if !typeSeen[base] {
			t.Fatalf("sample %q has no TYPE line", line)
		}
		sampleFamily[base] = true
		_ = value
	}
	for fam := range typeSeen {
		if !sampleFamily[fam] {
			t.Fatalf("TYPE %s declared but no samples emitted", fam)
		}
	}

	for _, want := range []string{
		"# TYPE ckpt_diff_writes counter\nckpt_diff_writes 12\n",
		`ckpt_diff_bytes{worker="0"} 1024`,
		`ckpt_diff_bytes{worker="1"} 2048`,
		"queue_depth 3",
		"queue_depth_high 7",
		`persist_latency_bucket{le="0.001"} 1`,
		`persist_latency_bucket{le="0.1"} 2`,
		`persist_latency_bucket{le="+Inf"} 3`,
		"persist_latency_count 3",
		// A histogram already named …_seconds keeps exactly one suffix.
		"# TYPE bench_experiment_seconds histogram\n",
		`bench_experiment_seconds_bucket{id="fig1a",le="1"} 1`,
		`bench_experiment_seconds_sum{id="fig1a"} 0.25`,
		`bench_experiment_seconds_count{id="fig1a"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
	if strings.Contains(text, "_seconds_seconds") {
		t.Fatalf("doubled _seconds suffix in exposition:\n%s", text)
	}
}

// parseSample splits a sample line into metric name (with label block
// stripped) and value, validating the identifier and float grammar.
func parseSample(line string) (string, float64, error) {
	name := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", 0, fmt.Errorf("unbalanced label block")
		}
		name = line[:i] + line[j+1:]
	}
	fields := strings.Fields(name)
	if len(fields) != 2 {
		return "", 0, fmt.Errorf("want 'name value', got %d fields", len(fields))
	}
	for _, c := range fields[0] {
		if !(c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')) {
			return "", 0, fmt.Errorf("invalid identifier char %q", c)
		}
	}
	v, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return "", 0, fmt.Errorf("invalid value: %w", err)
	}
	return fields[0], v, nil
}

// metricBase strips the exposition suffixes back to the family name.
func metricBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

func TestPrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := exportFixture().Snapshot().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := exportFixture().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Prometheus text differs across identical registries")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := New()
	r.Counter("esc.c", L("path", "a\"b\\c\nd")).Inc()
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_c{path="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("missing %q in:\n%s", want, buf.String())
	}
}

func TestEmptySnapshotExports(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty registry exposition = %q", buf.String())
	}
	buf.Reset()
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("empty snapshot JSON invalid: %v", err)
	}
}

func TestFormatFloat(t *testing.T) {
	for f, want := range map[float64]string{
		1:       "1",
		0.25:    "0.25",
		inf:     "+Inf",
		-inf:    "-Inf",
		1e9:     "1e+09",
		123.625: "123.625",
	} {
		if got := formatFloat(f); got != want {
			t.Fatalf("formatFloat(%v) = %q, want %q", f, got, want)
		}
	}
}
