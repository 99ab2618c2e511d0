package core

import (
	"bytes"
	"strings"
	"testing"

	"lowdiff/internal/comm"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
)

// newPeerEngine builds a small peer-strategy engine over a fresh store.
func newPeerEngine(t *testing.T, workers, fullEvery, window int, chaos *comm.ChaosConfig, events *obs.EventLog) (*Engine, storage.Store) {
	t.Helper()
	store := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: workers, Rho: 0.3,
		Store: store, FullEvery: fullEvery, Seed: 1234,
		Peer:   &PeerSpec{Window: window, Chaos: chaos},
		Events: events,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, store
}

// recoverFromPeers runs peer-side recovery and fails the test on error.
func recoverFromPeers(t *testing.T, store storage.Store, e *Engine) (*recovery.State, *recovery.PeerReport) {
	t.Helper()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	st, rep, err := recovery.FromPeers(store, e.Peers(), recovery.ValidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return st, rep
}

// TestPeerStrategyZeroDiffWritesAndBitExactRecovery is the headline
// property: per-iteration differentials live purely in peer windows (zero
// storage writes), yet recovery from the windows plus the last full is
// bit-exact with the live state.
func TestPeerStrategyZeroDiffWritesAndBitExactRecovery(t *testing.T) {
	quiesce(t)
	e, store := newPeerEngine(t, 3, 4, 4, nil, nil)
	stats, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiffWrites != 0 {
		t.Fatalf("peer-healthy run made %d differential storage writes, want 0", stats.DiffWrites)
	}
	if got := e.Health(); got != HealthOK {
		t.Fatalf("Health = %v, want ok", got)
	}
	if !e.WorkersInSync() {
		t.Fatal("workers out of sync")
	}
	st, rep := recoverFromPeers(t, store, e)
	if st.Iter != 10 {
		t.Fatalf("recovered to iteration %d, want 10", st.Iter)
	}
	// The store's newest full is iteration 8; the last two steps must have
	// come from a peer window.
	if rep.StorageIter != 8 || rep.PeerRank < 0 || rep.PeerDiffs != 2 {
		t.Fatalf("peer report = %+v, want storage 8 + 2 peer diffs", rep)
	}
	if !st.Params.Equal(e.Params()) {
		t.Fatal("peer recovery is not bit-exact with the live parameters")
	}
}

// TestPeerCrashRecoveryFromSurvivors crashes W−1 of 3 workers mid-run and
// recovers the lost state bit-exactly from the lone survivor's window.
func TestPeerCrashRecoveryFromSurvivors(t *testing.T) {
	quiesce(t)
	e, store := newPeerEngine(t, 3, 4, 8, &comm.ChaosConfig{
		Crashes: []comm.Crash{{Rank: 1, Iter: 6}, {Rank: 2, Iter: 6}},
	}, nil)
	stats, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiffWrites != 0 {
		t.Fatalf("survivor coverage held, yet %d diff writes happened", stats.DiffWrites)
	}
	if got := e.Health(); got != HealthOK {
		t.Fatalf("Health = %v, want ok (rank 0 still covers the chain)", got)
	}
	cc := e.Peers().ChaosCounters()
	if cc.Crashes != 2 {
		t.Fatalf("Crashes = %d, want 2", cc.Crashes)
	}
	if got := e.Peers().Survivors(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Survivors = %v, want [0]", got)
	}
	st, rep := recoverFromPeers(t, store, e)
	if st.Iter != 10 || rep.PeerRank != 0 {
		t.Fatalf("recovered to %d from rank %d, want 10 from rank 0", st.Iter, rep.PeerRank)
	}
	if !st.Params.Equal(e.Params()) {
		t.Fatal("crash recovery is not bit-exact")
	}
}

// TestPeerDegradesToStorageWhenAllPeersCrash kills every worker's window:
// coverage is unrecoverable, so the engine must transition to
// degraded-peer, persist a fresh base, and complete the run on the storage
// differential path without losing a step.
func TestPeerDegradesToStorageWhenAllPeersCrash(t *testing.T) {
	quiesce(t)
	var eventBuf bytes.Buffer
	events := obs.NewEventLog(&eventBuf)
	e, store := newPeerEngine(t, 2, 4, 8, &comm.ChaosConfig{
		Crashes: []comm.Crash{{Rank: 0, Iter: 3}, {Rank: 1, Iter: 3}},
	}, events)
	stats, err := e.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Health(); got != HealthDegradedPeer {
		t.Fatalf("Health = %v, want degraded-peer", got)
	}
	if !e.PeerFallbackActive() {
		t.Fatal("storage fallback should stay engaged with zero survivors")
	}
	if stats.DiffWrites == 0 {
		t.Fatal("fallback engaged but no differential reached the store")
	}
	st, rep := recoverFromPeers(t, store, e)
	if st.Iter != 10 {
		t.Fatalf("storage-path recovery reached %d, want 10", st.Iter)
	}
	if rep.PeerRank != -1 {
		t.Fatalf("PeerRank = %d, want -1 (no surviving window extends storage)", rep.PeerRank)
	}
	if !st.Params.Equal(e.Params()) {
		t.Fatal("storage-path recovery is not bit-exact")
	}
	// The degradation must be explicit in the event stream.
	if err := events.Err(); err != nil {
		t.Fatal(err)
	}
	stream := eventBuf.String()
	for _, want := range []string{`"type":"chaos.peer_crash"`, `"type":"peer.fallback"`, `"type":"health.degrade"`} {
		if !strings.Contains(stream, want) {
			t.Fatalf("event stream missing %s:\n%s", want, stream)
		}
	}
}

// TestPeerCorruptPayloadsDegradeExplicitly corrupts every retained payload:
// checksum verification must keep the window out of the coverage set and
// push the engine onto the storage path, with the corruption counted.
func TestPeerCorruptPayloadsDegradeExplicitly(t *testing.T) {
	quiesce(t)
	e, store := newPeerEngine(t, 1, 4, 4, &comm.ChaosConfig{Seed: 9, CorruptProb: 1}, nil)
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := e.Health(); got != HealthDegradedPeer {
		t.Fatalf("Health = %v, want degraded-peer (all payloads corrupt)", got)
	}
	if cc := e.Peers().ChaosCounters(); cc.Corruptions == 0 {
		t.Fatal("no corruptions counted")
	}
	if got := e.Peers().Window(0).Corrupt.Value(); got == 0 {
		t.Fatal("window checksum verification never fired")
	}
	st, _ := recoverFromPeers(t, store, e)
	if st.Iter != 10 || !st.Params.Equal(e.Params()) {
		t.Fatalf("recovered to %d (bit-exact=%v), want 10 bit-exact via storage", st.Iter, st.Params.Equal(e.Params()))
	}
}

// TestPeerRepromotionAfterTransientGap drops exactly one early payload on
// the only worker: the engine falls back, finishes the interrupted period
// on storage, then re-validates the peer plane at the next full boundary
// and returns to zero-write checkpointing.
func TestPeerRepromotionAfterTransientGap(t *testing.T) {
	quiesce(t)
	// LateProb 1 delays every payload by one iteration, so coverage at the
	// decision point is always one short: the engine must be on the
	// explicit storage path rather than silently losing steps.
	e, store := newPeerEngine(t, 1, 2, 4, &comm.ChaosConfig{Seed: 3, LateProb: 1}, nil)
	if _, err := e.Run(8); err != nil {
		t.Fatal(err)
	}
	// Late-by-one payloads mean the newest iteration is never covered at
	// its own decision point: the engine must be on the storage path and
	// say so, not silently lose steps.
	if got := e.Health(); got == HealthOK && e.PeerFallbackActive() {
		t.Fatalf("fallback active but health ok")
	}
	st, _ := recoverFromPeers(t, store, e)
	if st.Iter != 8 || !st.Params.Equal(e.Params()) {
		t.Fatalf("recovered to %d, want 8 bit-exact", st.Iter)
	}
	if got := e.Peers().ChaosCounters().LateRetains; got == 0 {
		t.Fatal("late retains never injected")
	}
}

// TestPeerCrashAtEveryIterationProperty is the satellite property test:
// crash-at-every-iteration × window depths {1, 2, W} must always recover
// to the last completed iteration or degrade explicitly — never silently
// lose steps. Depths shallower than FullEvery cannot sustain the peer
// plane, so those runs must end explicitly degraded; the full-depth runs
// must stay healthy with zero diff writes (rank 0 survives every crash).
func TestPeerCrashAtEveryIterationProperty(t *testing.T) {
	quiesce(t)
	const iters, fullEvery = 12, 4
	for _, depth := range []int{1, 2, 8} {
		for crash := int64(1); crash <= iters; crash++ {
			e, store := newPeerEngine(t, 3, fullEvery, depth, &comm.ChaosConfig{
				Crashes: []comm.Crash{{Rank: 1, Iter: crash}, {Rank: 2, Iter: crash}},
			}, nil)
			stats, err := e.Run(iters)
			if err != nil {
				t.Fatalf("depth=%d crash=%d: %v", depth, crash, err)
			}
			st, _ := recoverFromPeers(t, store, e)
			if st.Iter != iters {
				t.Fatalf("depth=%d crash=%d: recovered to %d, want %d", depth, crash, st.Iter, iters)
			}
			if !st.Params.Equal(e.Params()) {
				t.Fatalf("depth=%d crash=%d: recovery not bit-exact", depth, crash)
			}
			if depth >= fullEvery {
				if got := e.Health(); got != HealthOK || stats.DiffWrites != 0 {
					t.Fatalf("depth=%d crash=%d: health=%v diffWrites=%d, want ok/0", depth, crash, got, stats.DiffWrites)
				}
			} else if got := e.Health(); got == HealthOK {
				t.Fatalf("depth=%d crash=%d: shallow window ended healthy — silent step loss risk", depth, crash)
			}
		}
	}
}

// TestPeerChaosMatrix is the seeded chaos-matrix smoke: mixed drop/corrupt/
// late/crash schedules across seeds must always either stay healthy or
// degrade explicitly, always recover to the final iteration bit-exactly,
// and reproduce the exact same outcome when re-run with the same seed.
func TestPeerChaosMatrix(t *testing.T) {
	quiesce(t)
	type outcome struct {
		health    Health
		counters  comm.ChaosCounters
		fallbacks int64
	}
	configs := []comm.ChaosConfig{
		{DropProb: 0.3},
		{CorruptProb: 0.2},
		{LateProb: 0.2},
		{DropProb: 0.1, CorruptProb: 0.1, LateProb: 0.1, Crashes: []comm.Crash{{Rank: 2, Iter: 5}}},
	}
	for ci, cfg := range configs {
		for _, seed := range []uint64{1, 7, 42} {
			cfg.Seed = seed
			run := func() outcome {
				e, store := newPeerEngine(t, 3, 4, 4, &cfg, nil)
				if _, err := e.Run(12); err != nil {
					t.Fatalf("config=%d seed=%d: %v", ci, seed, err)
				}
				st, _ := recoverFromPeers(t, store, e)
				if st.Iter != 12 {
					t.Fatalf("config=%d seed=%d: recovered to %d, want 12", ci, seed, st.Iter)
				}
				if !st.Params.Equal(e.Params()) {
					t.Fatalf("config=%d seed=%d: recovery not bit-exact", ci, seed)
				}
				return outcome{
					health:    e.Health(),
					counters:  e.Peers().ChaosCounters(),
					fallbacks: e.peerFallbacks.Value(),
				}
			}
			first, second := run(), run()
			if first != second {
				t.Fatalf("config=%d seed=%d not deterministic: %+v vs %+v", ci, seed, first, second)
			}
		}
	}
}

// TestPeerRunContinuation checks iteration numbering and window coverage
// survive repeated Run calls on one engine.
func TestPeerRunContinuation(t *testing.T) {
	quiesce(t)
	e, store := newPeerEngine(t, 2, 4, 4, nil, nil)
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(5); err != nil {
		t.Fatal(err)
	}
	st, _ := recoverFromPeers(t, store, e)
	if st.Iter != 10 || !st.Params.Equal(e.Params()) {
		t.Fatalf("recovered to %d after two Runs, want 10 bit-exact", st.Iter)
	}
}

func TestPeerOptionsValidation(t *testing.T) {
	quiesce(t)
	base := Options{Spec: model.Tiny(2, 16), Workers: 1, Store: storage.NewMem(), Peer: &PeerSpec{}}
	cases := []func(o *Options){
		func(o *Options) { o.Store = nil },
		func(o *Options) { o.NaiveDC = true },
		func(o *Options) { o.PP = &PPSpec{Stages: 2} },
		func(o *Options) { o.Plus = &PlusSpec{} },
		func(o *Options) { o.Peer = &PeerSpec{Window: -1} },
		func(o *Options) { o.Workers = 3; o.Codec = "randk" },
		func(o *Options) { o.FullEvery = 4; o.BatchSize = 3 },
		func(o *Options) { o.Peer = &PeerSpec{Chaos: &comm.ChaosConfig{DropProb: 2}} },
	}
	for i, mutate := range cases {
		o := base
		mutate(&o)
		if _, err := NewEngine(o); err == nil {
			t.Errorf("case %d: invalid peer options accepted", i)
		}
	}
	if _, err := NewEngine(base); err != nil {
		t.Fatalf("valid peer options rejected: %v", err)
	}
}
