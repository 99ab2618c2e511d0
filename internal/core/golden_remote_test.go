package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lowdiff/internal/storage"
	"lowdiff/internal/storaged"
)

// These tests replay the golden fixtures with every engine's store swapped
// for a Remote client talking to a live lowdiffd server: routing
// checkpoints through the wire protocol, the daemon's staging path, and
// its backing store must not change a single byte of checkpoint output,
// loss bit pattern, or counter — the same determinism contract the
// parallel and overlap replays enforce (DESIGN.md §8, §12). The chaos
// variant additionally injects write failures and latency into the
// daemon's backing store and relies on the engines' fault-tolerance retry
// ladder: retried commits re-encode identical bytes, so even a flaky pool
// must reproduce the fixtures exactly.

// goldenFaultTolerance, when non-nil, is wired into every data-parallel
// golden engine by the dp builder in golden_test.go. Only the chaos
// replay sets it; the plain fixtures were captured fail-fast.
var goldenFaultTolerance *FaultToleranceOptions

// runGoldenRemote replays every store-backed golden configuration against
// a daemon whose per-tenant backing store is built by wrap (nil: plain
// in-memory). only, when non-nil, filters configurations by name.
func runGoldenRemote(t *testing.T, wrap func(storage.Store) (storage.Store, error), only func(string) bool) {
	srv, err := storaged.Start("127.0.0.1:0", storaged.Config{
		OpenStore: func(string) (storage.Store, error) {
			var s storage.Store = storage.NewMem()
			if wrap != nil {
				return wrap(s)
			}
			return s, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	for _, cfg := range goldenConfigs(0, false) {
		cfg := cfg
		if cfg.store == nil || (only != nil && !only(cfg.name)) {
			continue
		}
		t.Run(cfg.name, func(t *testing.T) {
			r, err := storage.DialRemote(srv.Addr(), "golden-"+cfg.name, storage.RemoteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = r.Close() }()
			cfg.store = r
			got := captureGolden(t, cfg)
			raw, err := os.ReadFile(filepath.Join("testdata", "golden", cfg.name+".json"))
			if err != nil {
				t.Fatalf("missing fixture (generate with LOWDIFF_UPDATE_GOLDEN=1): %v", err)
			}
			var want goldenFixture
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, &want, got)
		})
	}
}

// TestGoldenEquivalenceRemote replays the fixtures through a healthy
// daemon: every engine family (data-parallel, LowDiff+, pipeline-parallel)
// checkpoints over TCP into its own tenant.
func TestGoldenEquivalenceRemote(t *testing.T) {
	quiesce(t)
	runGoldenRemote(t, nil, nil)
}

// TestGoldenEquivalenceRemoteChaos replays the data-parallel fixtures
// through a daemon whose backing store drops ~35% of writes and delays a
// quarter of its operations. The engines run with a fault-tolerance retry
// policy (no backoff sleeps: chaos here is dense, not slow), so every
// failed commit is retried until it lands — and because a retried persist
// re-encodes the identical object, the committed bytes still match the
// fixtures exactly. Only the dp configurations participate: the Plus and
// pipeline engines have no retry ladder.
func TestGoldenEquivalenceRemoteChaos(t *testing.T) {
	quiesce(t)
	goldenFaultTolerance = &FaultToleranceOptions{Retry: RetryPolicy{MaxRetries: 40, Seed: 7}}
	defer func() { goldenFaultTolerance = nil }()
	wrap := func(s storage.Store) (storage.Store, error) {
		return storage.NewChaos(s, storage.ChaosConfig{
			Seed:          1234,
			WriteFailProb: 0.35,
			LatencyProb:   0.25,
			Latency:       time.Millisecond,
		})
	}
	runGoldenRemote(t, wrap, func(name string) bool { return strings.HasPrefix(name, "dp-") })
}
