package core

// Golden-equivalence harness for the engine-unification refactor.
//
// The fixtures under testdata/golden were generated from the PRE-refactor
// engines (the three independent Run loops in engine.go / engineplus.go /
// enginepp.go) and are the proof obligation of the unified pipeline core:
// for fixed seeds, the unified Engine/Plus/PP paths must reproduce
//
//   - every checkpoint object in the store, byte for byte (sha256),
//   - the loss trajectory, bit for bit (float64 bit patterns),
//   - the final parameters and optimizer state, byte for byte,
//   - the JSONL event log, byte for byte — for configurations whose event
//     stream is single-sourced and therefore deterministic (see each
//     config's events flag; streams with concurrent emitters interleave
//     nondeterministically in the pre-refactor engines too, so byte
//     comparison would be meaningless there). With a store there are two
//     emitters, because a full persists past Run's return: that stream is
//     compared per emitter, seq stripped (compareEvents),
//   - the deterministic RunStats fields.
//
// Regenerate (only for intentional behavior changes, never to paper over
// an equivalence break) with:
//
//	LOWDIFF_UPDATE_GOLDEN=1 go test ./internal/core -run TestGolden

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// goldenFixture is the serialized equivalence record for one configuration.
type goldenFixture struct {
	InitialLoss string            `json:"initial_loss"` // float64 bits, hex
	Losses      []string          `json:"losses"`       // after each Run chunk
	FinalParams string            `json:"final_params"` // sha256 of raw float32 bits
	FinalOpt    string            `json:"final_opt"`    // sha256 of canonical opt-state encoding
	DiffWrites  []int64           `json:"diff_writes"`  // per chunk
	FullWrites  []int64           `json:"full_writes"`  // per chunk
	Store       map[string]string `json:"store"`        // object name -> sha256
	Events      []string          `json:"events,omitempty"`
}

// goldenEngine adapts the three engine variants to one capture loop.
type goldenEngine interface {
	Loss() float64
	Params() tensor.Vector
}

type goldenConfig struct {
	name   string
	chunks []int
	store  storage.Store // nil: no checkpointing
	events bool          // capture the event log (deterministic streams only)
	build  func(store storage.Store, events *obs.EventLog) (goldenEngine, error)
	// run executes one chunk and returns (diffWrites, fullWrites).
	run func(e goldenEngine, iters int) (int64, int64, error)
	// finish flushes tail state; returns the final optimizer state.
	finish func(e goldenEngine) (optim.State, error)
}

// goldenConfigs builds the fixture configurations with the given values of
// the two deprecated no-op fields: par sets Options.Parallelism and overlap
// sets Options.Overlap on every configuration. Neither may change anything,
// so every pair of values must reproduce the same fixtures.
func goldenConfigs(par int, overlap bool) []goldenConfig {
	dp := func(opts Options) goldenConfig {
		return goldenConfig{
			build: func(store storage.Store, events *obs.EventLog) (goldenEngine, error) {
				o := opts
				o.Store = store
				o.Events = events
				o.Parallelism = par
				o.Overlap = overlap
				o.FaultTolerance = goldenFaultTolerance
				return NewEngine(o)
			},
			run: func(e goldenEngine, iters int) (int64, int64, error) {
				st, err := e.(*Engine).Run(iters)
				return st.DiffWrites, st.FullWrites, err
			},
			finish: func(e goldenEngine) (optim.State, error) {
				if err := e.(*Engine).Flush(); err != nil {
					return optim.State{}, err
				}
				return e.(*Engine).OptState(), nil
			},
		}
	}
	cfgs := []goldenConfig{}

	// Data-parallel LowDiff: two workers, Top-K, unbatched diffs, uneven
	// chunks so iteration accounting crosses Run boundaries.
	c := dp(Options{
		Spec: model.Tiny(4, 32), Workers: 2, Rho: 0.1, LR: 0.02,
		FullEvery: 5, BatchSize: 1, Seed: 101,
	})
	c.name, c.chunks, c.store = "dp-diff", []int{7, 6, 7}, storage.NewMem()
	cfgs = append(cfgs, c)

	// Batched diffs + SGD momentum + retention GC; a tail batch is left
	// open at the end of the run for Flush to cut.
	c = dp(Options{
		Spec: model.Tiny(3, 24), Workers: 1, Optimizer: "sgd", Momentum: 0.9,
		LR: 0.05, Rho: 0.2, FullEvery: 6, BatchSize: 3, RetainFulls: 2, Seed: 102,
	})
	c.name, c.chunks, c.store = "dp-batched-gc", []int{20}, storage.NewMem()
	cfgs = append(cfgs, c)

	// Naïve DC ablation: state-delta differentials.
	c = dp(Options{
		Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.5,
		FullEvery: 4, BatchSize: 1, NaiveDC: true, Seed: 103,
	})
	c.name, c.chunks, c.store = "dp-naivedc", []int{12}, storage.NewMem()
	cfgs = append(cfgs, c)

	// Event-log golden for the data-parallel stream: without a store the
	// only emitters are the main goroutine and worker 0 (milestones), so
	// the JSONL bytes are fully deterministic.
	c = dp(Options{
		Spec: model.Tiny(3, 16), Workers: 2, Rho: 0.2, FullEvery: 4, Seed: 104,
	})
	c.name, c.chunks, c.events = "dp-events", []int{9, 3}, true
	cfgs = append(cfgs, c)

	// LowDiff+: layer-wise snapshotting into the CPU replica with periodic
	// persistence. The event stream is captured too: each of its two
	// emitters (run lifecycle, persists from the single persister goroutine)
	// is deterministic.
	cfgs = append(cfgs, goldenConfig{
		name: "plus", chunks: []int{17}, store: storage.NewMem(), events: true,
		build: func(store storage.Store, events *obs.EventLog) (goldenEngine, error) {
			return NewEngine(Options{
				Spec: model.Tiny(5, 24), Workers: 2, LR: 0.03,
				Store: store, Plus: &PlusSpec{PersistEvery: 5}, Parallelism: par,
				Overlap: overlap, Seed: 105, Events: events,
			})
		},
		run: func(e goldenEngine, iters int) (int64, int64, error) {
			st, err := e.(*Engine).Run(iters)
			return 0, st.FullWrites, err
		},
		finish: func(e goldenEngine) (optim.State, error) {
			return e.(*Engine).Replica().State().Opt, nil
		},
	})

	// Pipeline-parallel: four stages, batched assembled diffs. The diff
	// persister (coordinator goroutine) and the inline full persister
	// (stage 0) emit concurrently, so only the store bytes — which are
	// deterministic — are compared, not the event interleaving.
	cfgs = append(cfgs, goldenConfig{
		name: "pp", chunks: []int{13, 7}, store: storage.NewMem(),
		build: func(store storage.Store, events *obs.EventLog) (goldenEngine, error) {
			return NewEngine(Options{
				Spec: model.Tiny(8, 32), PP: &PPSpec{Stages: 4}, Rho: 0.2,
				Store: store, FullEvery: 10, BatchSize: 2, Parallelism: par,
				Overlap: overlap, Seed: 106, Events: events,
			})
		},
		run: func(e goldenEngine, iters int) (int64, int64, error) {
			st, err := e.(*Engine).Run(iters)
			return st.DiffWrites, st.FullWrites, err
		},
		finish: func(e goldenEngine) (optim.State, error) {
			if err := e.(*Engine).Flush(); err != nil {
				return optim.State{}, err
			}
			return e.(*Engine).GlobalOptState()
		},
	})
	return cfgs
}

func TestGoldenEquivalence(t *testing.T) {
	quiesce(t)
	update := os.Getenv("LOWDIFF_UPDATE_GOLDEN") != ""
	runGolden(t, 0, false, update)
}

// TestGoldenEquivalenceParallel replays every golden configuration with the
// deprecated Options.Parallelism set to 3 against the unregenerated
// fixtures: the inert field may not change a single byte of checkpoint
// output, loss bit pattern, or event line (DESIGN.md §8). Fixtures are never
// regenerated from this test.
func TestGoldenEquivalenceParallel(t *testing.T) {
	quiesce(t)
	runGolden(t, 3, false, false)
}

// TestGoldenEquivalenceOverlap replays every golden configuration at several
// values of the deprecated Options.Parallelism with the deprecated
// Options.Overlap set: neither inert field may change a single byte of
// checkpoint output, loss bit pattern, or event line (DESIGN.md §8, §11).
// Fixtures are never regenerated from this test.
func TestGoldenEquivalenceOverlap(t *testing.T) {
	quiesce(t)
	for _, par := range []int{1, 2, 7, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			runGolden(t, par, true, false)
		})
	}
}

func runGolden(t *testing.T, par int, overlap, update bool) {
	for _, cfg := range goldenConfigs(par, overlap) {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			got := captureGolden(t, cfg)
			path := filepath.Join("testdata", "golden", cfg.name+".json")
			if update {
				writeGolden(t, path, got)
				return
			}
			raw, err := os.ReadFile(path)
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

func captureGolden(t *testing.T, cfg goldenConfig) *goldenFixture {
	t.Helper()
	var buf bytes.Buffer
	var events *obs.EventLog
	if cfg.events {
		events = obs.NewEventLog(&buf)
	}
	e, err := cfg.build(cfg.store, events)
	if err != nil {
		t.Fatal(err)
	}
	fx := &goldenFixture{InitialLoss: f64bits(e.Loss())}
	for _, n := range cfg.chunks {
		dw, fw, err := cfg.run(e, n)
		if err != nil {
			t.Fatal(err)
		}
		fx.Losses = append(fx.Losses, f64bits(e.Loss()))
		fx.DiffWrites = append(fx.DiffWrites, dw)
		fx.FullWrites = append(fx.FullWrites, fw)
	}
	st, err := cfg.finish(e)
	if err != nil {
		t.Fatal(err)
	}
	// Not every finish flushes (the plus fixture was captured without the
	// flushed replica tail), so join what is still persisting.
	e.(*Engine).joinFulls()
	fx.FinalParams = paramsHash(e.Params())
	fx.FinalOpt = optStateHash(st)
	fx.Store = storeDigest(t, cfg.store)
	if cfg.events {
		if err := events.Err(); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
			fx.Events = append(fx.Events, string(line))
		}
	}
	return fx
}

// storeDigest maps every object in store (nil: none) to its SHA-256.
func storeDigest(t *testing.T, store storage.Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	if store == nil {
		return out
	}
	names, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		obj, err := storage.ReadObject(store, name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sha256hex(obj)
	}
	return out
}

// TestOverlapIsInert pins the deprecated Options.Overlap as a no-op: every
// strategy, including the combinations the removed pipelined schedule
// rejected (Peer, Naïve DC), builds with it set and writes the same store
// objects, byte for byte, as without it.
func TestOverlapIsInert(t *testing.T) {
	quiesce(t)
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"dp", Options{Spec: model.Tiny(4, 32), Workers: 2, Rho: 0.1, FullEvery: 5, Seed: 111}},
		{"dp-naivedc-topk", Options{Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.5,
			FullEvery: 4, NaiveDC: true, Seed: 112}},
		{"peer", Options{Spec: model.Tiny(3, 16), Workers: 2, Rho: 0.3, FullEvery: 4,
			Peer: &PeerSpec{Window: 4}, Seed: 113}},
		{"plus", Options{Spec: model.Tiny(5, 24), Workers: 2, Plus: &PlusSpec{PersistEvery: 5}, Seed: 114}},
		{"pp", Options{Spec: model.Tiny(8, 32), PP: &PPSpec{Stages: 4}, Rho: 0.2,
			FullEvery: 5, BatchSize: 1, Seed: 115}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			digest := func(overlap bool) map[string]string {
				o := tc.opts
				o.Store = storage.NewMem()
				o.Overlap = overlap
				e, err := NewEngine(o)
				if err != nil {
					t.Fatalf("Overlap=%v: %v", overlap, err)
				}
				if _, err := e.Run(12); err != nil {
					t.Fatal(err)
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				return storeDigest(t, o.Store)
			}
			off, on := digest(false), digest(true)
			if len(off) < 2 {
				t.Fatalf("only %d objects written: nothing to compare", len(off))
			}
			if fmt.Sprint(off) != fmt.Sprint(on) {
				t.Fatalf("Overlap changed the store:\noff %v\non  %v", off, on)
			}
		})
	}
}

func compareGolden(t *testing.T, want, got *goldenFixture) {
	t.Helper()
	if want.InitialLoss != got.InitialLoss {
		t.Errorf("initial loss: want %s, got %s", want.InitialLoss, got.InitialLoss)
	}
	if fmt.Sprint(want.Losses) != fmt.Sprint(got.Losses) {
		t.Errorf("loss trajectory diverged:\nwant %v\ngot  %v", want.Losses, got.Losses)
	}
	if fmt.Sprint(want.DiffWrites) != fmt.Sprint(got.DiffWrites) {
		t.Errorf("diff writes: want %v, got %v", want.DiffWrites, got.DiffWrites)
	}
	if fmt.Sprint(want.FullWrites) != fmt.Sprint(got.FullWrites) {
		t.Errorf("full writes: want %v, got %v", want.FullWrites, got.FullWrites)
	}
	if want.FinalParams != got.FinalParams {
		t.Errorf("final parameters are not bit-identical")
	}
	if want.FinalOpt != got.FinalOpt {
		t.Errorf("final optimizer state is not bit-identical")
	}
	wantNames := sortedKeys(want.Store)
	gotNames := sortedKeys(got.Store)
	if fmt.Sprint(wantNames) != fmt.Sprint(gotNames) {
		t.Errorf("store object set diverged:\nwant %v\ngot  %v", wantNames, gotNames)
	} else {
		for _, n := range wantNames {
			if want.Store[n] != got.Store[n] {
				t.Errorf("store object %q is not byte-identical", n)
			}
		}
	}
	compareEvents(t, want.Events, got.Events, len(want.Store) > 0)
}

// compareEvents compares two event logs line for line. perEmitter relaxes
// that for a run with a store, where the persister emits beside the run's own
// goroutine and a persist may land after run.end: the seq field is stripped
// and each emitter's events (the type up to its last dot: "run",
// "ckpt.full") must appear in the same order — the rule
// obs.TestEngineEventLogDeterministic applies.
func compareEvents(t *testing.T, want, got []string, perEmitter bool) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("event log: want %d lines, got %d", len(want), len(got))
		return
	}
	if !perEmitter {
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("event line %d diverged:\nwant %s\ngot  %s", i, want[i], got[i])
			}
		}
		return
	}
	w, g := eventsByEmitter(t, want), eventsByEmitter(t, got)
	for _, emitter := range sortedKeys(w) {
		// The logs are equally long, so an emitter only got has shows up
		// as a shortfall here too.
		if fmt.Sprint(w[emitter]) != fmt.Sprint(g[emitter]) {
			t.Errorf("events of emitter %q diverged:\nwant %v\ngot  %v", emitter, w[emitter], g[emitter])
		}
	}
}

func eventsByEmitter(t *testing.T, lines []string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, line := range lines {
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
		emitter := ev.Type
		if i := strings.LastIndexByte(emitter, '.'); i >= 0 {
			emitter = emitter[:i]
		}
		out[emitter] = append(out[emitter], string(norm))
	}
	return out
}

func writeGolden(t *testing.T, path string, fx *goldenFixture) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(fx, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func f64bits(v float64) string {
	return fmt.Sprintf("0x%016x", math.Float64bits(v))
}

func sha256hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func paramsHash(v tensor.Vector) string {
	b := make([]byte, 4*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
	return sha256hex(b)
}

// optStateHash canonically encodes an optimizer state (sorted scalar and
// slot keys, raw float bit patterns) and hashes it.
func optStateHash(st optim.State) string {
	var b bytes.Buffer
	b.WriteString(st.Name)
	_ = binary.Write(&b, binary.LittleEndian, st.Step)
	for _, k := range sortedKeys(st.Scalars) {
		b.WriteString(k)
		_ = binary.Write(&b, binary.LittleEndian, math.Float64bits(st.Scalars[k]))
	}
	for _, k := range sortedKeys(st.Slots) {
		b.WriteString(k)
		for _, x := range st.Slots[k] {
			_ = binary.Write(&b, binary.LittleEndian, math.Float32bits(x))
		}
	}
	return sha256hex(b.Bytes())
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
