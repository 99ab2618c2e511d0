package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/model"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
)

// These tests pin the contract between Run, Flush and the engine's full
// persister: Run returns with its fulls handed off, not written; Flush is the
// barrier; a persist error surfaces once; the worker needs no Close.

// gatedStore holds every Create of a full checkpoint until the gate opens,
// counts them, and can fail the ones of one name.
type gatedStore struct {
	storage.Store
	gate chan struct{}
	fail string // full object whose Create fails once the gate is open

	mu      sync.Mutex
	creates map[string]int
}

func newGatedStore() *gatedStore {
	return &gatedStore{Store: storage.NewMem(), gate: make(chan struct{}), creates: map[string]int{}}
}

func (s *gatedStore) Create(name string) (io.WriteCloser, error) {
	if strings.HasPrefix(name, "full-") {
		<-s.gate
		s.mu.Lock()
		s.creates[name]++
		s.mu.Unlock()
		if name == s.fail {
			return nil, storage.ErrInjectedFault
		}
	}
	return s.Store.Create(name)
}

func (s *gatedStore) created(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.creates[name]
}

// listed counts the objects whose name starts with prefix.
func listed(t *testing.T, s storage.Store, prefix string) int {
	t.Helper()
	names, err := s.List(prefix)
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

func TestRunHandsOffFlushIsTheBarrier(t *testing.T) {
	quiesce(t)
	store := newGatedStore()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.3,
		Store: store, FullEvery: 5, BatchSize: 1, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Run returns while the store still refuses every full: the initial one
	// is stuck in the worker, the one of iteration 5 queued behind it.
	stats, err := e.Run(5)
	if err != nil {
		t.Fatal(err)
	}
	last := checkpoint.FullName(5)
	if stats.FullWrites != 2 || stats.DiffWrites != 5 {
		t.Fatalf("Run counted %d fulls handed off and %d diff writes, want 2 and 5", stats.FullWrites, stats.DiffWrites)
	}
	if n := listed(t, store, "full-"); n != 0 {
		t.Fatalf("%d fulls in the store before the gate opened", n)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- e.Flush() }()
	select {
	case err := <-flushed:
		t.Fatalf("Flush returned (%v) with a full still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(store.gate)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if listed(t, store, last) != 1 {
		t.Fatalf("%s not in the store after Flush", last)
	}
	st, _, err := recovery.Latest(store)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iter != 5 || !st.Params.Equal(e.Params()) {
		t.Fatalf("recovered iteration %d (bit-exact=%v) after Flush, want 5 bit-exact", st.Iter, st.Params.Equal(e.Params()))
	}
}

// A full that crossed Run's return and then failed is reported by whichever
// of Run and Flush comes next, and by that one only.
func TestCrossedPersistErrorSurfacesOnce(t *testing.T) {
	for _, first := range []string{"Flush", "Run"} {
		t.Run(first, func(t *testing.T) {
			quiesce(t)
			store := newGatedStore()
			store.fail = checkpoint.FullName(5)
			e, err := NewEngine(Options{
				Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.3,
				Store: store, FullEvery: 5, DisableDiffs: true, Seed: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.Run(5); err != nil {
				t.Fatalf("Run reported a persist that had not been attempted: %v", err)
			}
			close(store.gate)
			var errs [2]error
			if first == "Flush" {
				errs[0] = e.Flush()
				_, errs[1] = e.Run(3)
			} else {
				e.joinFulls() // the failure has happened; nobody has seen it
				_, errs[0] = e.Run(3)
				errs[1] = e.Flush()
			}
			if !errors.Is(errs[0], storage.ErrInjectedFault) {
				t.Fatalf("%s returned %v, want the injected persist fault", first, errs[0])
			}
			if errs[1] != nil {
				t.Fatalf("the persist fault surfaced a second time: %v", errs[1])
			}
			if err := e.Flush(); err != nil {
				t.Fatalf("Flush after the fault was reported: %v", err)
			}
		})
	}
}

// An engine has no Close: dropped after Run, its in-flight full still lands
// and the worker goroutine then exits by itself.
func TestPersisterNeedsNoClose(t *testing.T) {
	start := runtime.NumGoroutine()
	store := newGatedStore()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 2, Rho: 0.3,
		Store: store, FullEvery: 5, BatchSize: 1, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() <= start {
		t.Fatal("no persister goroutine while fulls are in flight")
	}
	close(store.gate)
	if !settled(start) {
		t.Fatalf("%d goroutines after the last persist, %d before NewEngine", runtime.NumGoroutine(), start)
	}
	if listed(t, store, checkpoint.FullName(10)) != 1 {
		t.Fatal("the full in flight at Run's return never landed")
	}
}

// Flush joins before it looks at the replica: the in-flight persist of the
// replica's newest iteration must not be written a second time as the tail.
func TestPlusFlushJoinsBeforeReplicaTail(t *testing.T) {
	quiesce(t)
	store := newGatedStore()
	e, err := NewEngine(Options{
		Spec: model.Tiny(3, 16), Workers: 1, Plus: &PlusSpec{PersistEvery: 5},
		Store: store, Seed: 34,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := e.Replica().PersistedIter(); got != 0 {
		t.Fatalf("replica reports iteration %d persisted behind a closed gate", got)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- e.Flush() }()
	close(store.gate)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if got := e.Replica().PersistedIter(); got != 10 {
		t.Fatalf("persisted iteration %d after Flush, want 10", got)
	}
	for _, iter := range []int64{0, 5, 10} {
		if n := store.created(checkpoint.FullName(iter)); n != 1 {
			t.Errorf("%s written %d times, want once", checkpoint.FullName(iter), n)
		}
	}
}

// nameFaultStore fails every Create of one object name.
type nameFaultStore struct {
	storage.Store
	name string
}

func (s *nameFaultStore) Create(name string) (io.WriteCloser, error) {
	if name == s.name {
		return nil, storage.ErrInjectedFault
	}
	return s.Store.Create(name)
}

// A differential-write fault that no fresh base has healed when Run returns
// must still hold the chain back in the next Run: a differential appended
// before the new base lands could never be replayed. The run then "crashes"
// (no Flush); whatever is in the store must recover bit-exactly.
func TestChainFaultStateSurvivesRunBoundary(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy func(o *Options)
		failIter int64 // its differential write fails for good
	}{
		// The last gradient of the first Run fails: the on-demand full it
		// asks for is usually taken by the second Run.
		{"dp", func(o *Options) { o.Workers = 1 }, 6},
		// PP waits for the next periodic full (iteration 8), a Run later.
		{"pp", func(o *Options) { o.PP = &PPSpec{Stages: 2} }, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			quiesce(t)
			mem := storage.NewMem()
			opts := Options{
				Spec: model.Tiny(4, 16), Optimizer: "sgd", LR: 0.05, Rho: 0.3,
				Store:     &nameFaultStore{Store: mem, name: checkpoint.DiffName(tc.failIter, tc.failIter)},
				FullEvery: 8, BatchSize: 1, QueueCap: 2, Seed: 35,
				FaultTolerance: &FaultToleranceOptions{Retry: RetryPolicy{MaxRetries: 1}},
			}
			tc.strategy(&opts)
			e, err := NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, iters := range []int{6, 4} {
				if _, err := e.Run(iters); err != nil {
					t.Fatal(err)
				}
			}
			e.joinFulls() // the crash point: everything handed off has landed, nothing was flushed
			if e.FaultCounters().DiffFailures.Value() != 1 {
				t.Fatalf("fault not exercised: %+v", e.FaultCounters().Snapshot())
			}

			m, err := checkpoint.Scan(mem)
			if err != nil {
				t.Fatal(err)
			}
			// Every differential must chain back to a full with no hole.
			for _, d := range m.Diffs {
				if err := chainsToBase(m, d.FirstIter); err != nil {
					t.Errorf("%s lacks its base: %v", d.Name, err)
				}
			}
			st, _, err := recovery.LatestValid(mem, recovery.ValidateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Iter != 10 || !st.Params.Equal(e.Params()) {
				t.Fatalf("recovered to iteration %d (bit-exact=%v), want 10 bit-exact", st.Iter, st.Params.Equal(e.Params()))
			}
		})
	}
}

// chainsToBase checks that the differential starting at first is reachable
// from a full checkpoint through contiguous differentials.
func chainsToBase(m *checkpoint.Manifest, first int64) error {
	need := first - 1 // the iteration the differential applies on top of
	for {
		found := false
		for _, f := range m.Fulls {
			if f.Iter == need {
				return nil
			}
		}
		for _, d := range m.Diffs {
			if d.LastIter == need {
				need, found = d.FirstIter-1, true
				break
			}
		}
		if !found {
			return fmt.Errorf("nothing in the store ends at iteration %d", need)
		}
	}
}
