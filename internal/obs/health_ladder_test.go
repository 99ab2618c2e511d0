// Integration of the ops endpoint with the engine's fault ladder: /healthz
// flips 200 → 503 as injected storage chaos degrades a real training run,
// and flips back when the degraded engine is replaced by a healthy one (the
// "device replaced, resume from checkpoint" path). Lives in obs_test because
// core imports obs.
package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/storage"
)

func healthz(t *testing.T, base string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func newLadderEngine(t *testing.T, store storage.Store, reg *obs.Registry, events *obs.EventLog) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.Options{
		Spec: model.Tiny(2, 16), Workers: 2, Optimizer: "adam", LR: 0.02,
		Rho: 0.3, Store: store, FullEvery: 4, BatchSize: 1, QueueCap: 2,
		Seed:           7,
		FaultTolerance: &core.FaultToleranceOptions{Retry: core.RetryPolicy{MaxRetries: 2}},
		Metrics:        reg, Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestHealthzFollowsFaultLadder(t *testing.T) {
	reg := obs.New()
	var eventBuf bytes.Buffer
	events := obs.NewEventLog(&eventBuf)

	// The health source is swappable so one endpoint can span an engine
	// replacement, like a long-lived ops port across a device swap.
	var engine atomic.Pointer[core.Engine]
	srv, err := obs.Serve("127.0.0.1:0", obs.ServerOptions{
		Registry: reg,
		Health: func() obs.HealthStatus {
			h := engine.Load().Health()
			return obs.HealthStatus{Status: h.String(), OK: h != core.HealthDegraded}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	base := "http://" + srv.Addr()

	// Phase 1: healthy store, healthy ladder, 200.
	engine.Store(newLadderEngine(t, storage.NewMem(), reg, events))
	if _, err := engine.Load().Run(8); err != nil {
		t.Fatal(err)
	}
	// Flush joins the full still persisting: the event buffer is read below.
	if err := engine.Load().Flush(); err != nil {
		t.Fatal(err)
	}
	if code, body := healthz(t, base); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy phase = %d %s", code, body)
	}

	// Phase 2: the device dies after 3 writes. Diff writes fail (fallback
	// requested), the fallback full fails too, and the ladder bottoms out
	// at "degraded" — the probe must start failing.
	chaos, err := storage.NewChaos(storage.NewMem(), storage.ChaosConfig{
		Seed: 5, FailWritesAfter: 3, Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := newLadderEngine(t, chaos, reg, events)
	engine.Store(bad)
	if _, err := bad.Run(30); err != nil {
		t.Fatalf("fault-tolerant run aborted: %v", err)
	}
	if err := bad.Flush(); err != nil {
		t.Fatalf("degraded flush errored: %v", err)
	}
	if got := bad.Health(); got != core.HealthDegraded {
		t.Fatalf("health after chaos = %v, want degraded", got)
	}
	if code, body := healthz(t, base); code != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"degraded"`) {
		t.Fatalf("degraded phase = %d %s", code, body)
	}

	// The scrape must reflect the same story the probe tells.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"engine_health 3", "fault_degradations", "fault_diff_failures"} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("scrape missing %q:\n%s", want, metrics)
		}
	}

	// Phase 3: device replaced — a fresh engine on a working store reuses
	// the registry and endpoint, and the probe recovers.
	engine.Store(newLadderEngine(t, storage.NewMem(), reg, events))
	if code, body := healthz(t, base); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("replaced phase = %d %s", code, body)
	}

	// The event stream recorded the story: chaos injections, the diff
	// fallback, and the ladder transitions, in seq order.
	if err := events.Err(); err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, line := range strings.Split(strings.TrimSpace(eventBuf.String()), "\n") {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		types = append(types, ev.Type)
	}
	joined := strings.Join(types, " ")
	for _, want := range []string{"run.start", "chaos.write_fault", "ckpt.diff.retry", "ckpt.diff.fallback", "health.degrade", "ckpt.full.fail", "run.end"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("event stream missing %q:\n%s", want, joined)
		}
	}
}

// TestEngineEventLogDeterministic runs the same fixed-seed training twice.
// The checkpoint persister is deliberately asynchronous — a full taken on
// the last iteration persists past Run's return, so its ckpt.full.persist
// can follow run.end; Flush joins it before the log is read — and the global
// interleaving of its events with the worker's is scheduler-dependent; what
// the design guarantees — and this test asserts — is that the set of events
// (seq stripped) is identical and that each emitter's events appear in the
// same relative order. No wall time may leak in without an injected clock.
func TestEngineEventLogDeterministic(t *testing.T) {
	record := func() []byte {
		var buf bytes.Buffer
		events := obs.NewEventLog(&buf)
		e, err := core.NewEngine(core.Options{
			Spec: model.Tiny(2, 16), Workers: 1, Optimizer: "sgd", LR: 0.05,
			Rho: 0.3, Store: storage.NewMem(), FullEvery: 4, BatchSize: 2,
			Seed: 11, Events: events,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(12); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := events.Err(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := record(), record()
	if len(a) == 0 {
		t.Fatal("no events recorded")
	}
	normA, normB := normalizeEvents(t, a), normalizeEvents(t, b)
	if !reflect.DeepEqual(sortedCopy(normA), sortedCopy(normB)) {
		t.Fatalf("fixed-seed event sets differ:\n%s\nvs\n%s", a, b)
	}
	// Per-emitter order: the worker's training events and the persister's
	// checkpoint events must each appear in the same relative order.
	for _, prefix := range []string{`"type":"train.`, `"type":"ckpt.full.`, `"type":"ckpt.diff.`} {
		fa, fb := filterEvents(normA, prefix), filterEvents(normB, prefix)
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("per-emitter order for %s differs:\n%v\nvs\n%v", prefix, fa, fb)
		}
	}
	// Timestamps only appear under an injected clock.
	if bytes.Contains(a, []byte("ts_ns")) {
		t.Fatalf("wall time leaked into events:\n%s", a)
	}
}

// normalizeEvents strips the interleaving-dependent seq field, leaving the
// event payloads in emission order.
func normalizeEvents(t *testing.T, raw []byte) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Type   string         `json:"type"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		norm, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(norm))
	}
	return out
}

func sortedCopy(s []string) []string {
	c := append([]string(nil), s...)
	sort.Strings(c)
	return c
}

func filterEvents(events []string, substr string) []string {
	var out []string
	for _, e := range events {
		if strings.Contains(e, substr) {
			out = append(out, e)
		}
	}
	return out
}

// schedulingDependent names the series whose value depends on how the
// trainer, the diff consumer and the persister goroutines interleave, not on
// the seed: the reuse queue's instantaneous depth, its high-water mark, and
// how often a Put found it full. Together with the wall-clock *_seconds
// family they are the only series a fixed-seed run may not reproduce.
var schedulingDependent = map[string]bool{
	"queue.depth":        true,
	"queue.depth_high":   true,
	"queue.blocked_puts": true,
}

// TestEngineSnapshotDeterministic runs the same fixed-seed training twice
// against fresh registries and expects identical snapshot JSON for every
// series that is not scheduling-dependent or a wall-clock duration.
func TestEngineSnapshotDeterministic(t *testing.T) {
	snapshot := func() []byte {
		reg := obs.New()
		e, err := core.NewEngine(core.Options{
			Spec: model.Tiny(2, 16), Workers: 1, Optimizer: "sgd", LR: 0.05,
			Rho: 0.3, Store: storage.NewMem(), FullEvery: 4, BatchSize: 2,
			Seed: 11, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(12); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		var kept []obs.Metric
		for _, m := range snap.Metrics {
			if !schedulingDependent[m.Name] && !strings.HasSuffix(m.Name, "_seconds") {
				kept = append(kept, m)
			}
		}
		snap.Metrics = kept
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := snapshot(), snapshot()
	if !bytes.Equal(a, b) {
		t.Fatalf("fixed-seed snapshots differ:\n%s\nvs\n%s", a, b)
	}
}
