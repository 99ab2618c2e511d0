package recovery

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

// stored is one entry of a recorded store's log: an object that committed
// (with its bytes) or one that was deleted.
type stored struct {
	name    string
	data    []byte
	deleted bool
}

// recording returns a store that logs, in order, every committed object with
// its bytes and every successful delete.
func recording(s storage.Store) (storage.Store, func() []stored) {
	var mu sync.Mutex
	var log []stored
	add := func(e stored) { mu.Lock(); log = append(log, e); mu.Unlock() }
	rec := &storage.Interposer{Store: s}
	rec.Op = func(op, name string, call func() error) error {
		err := call()
		if op == "delete" && err == nil {
			add(stored{name: name, deleted: true})
		}
		return err
	}
	rec.Writer = func(name string, create func() (io.WriteCloser, error)) (io.WriteCloser, error) {
		var tee bytes.Buffer
		return storage.WriteHooks{Write: func(p []byte) { tee.Write(p) }, Closed: func(ok bool) {
			if ok {
				add(stored{name: name, data: tee.Bytes()})
			}
		}}.Wrap(create())
	}
	return rec, func() []stored {
		mu.Lock()
		defer mu.Unlock()
		return append([]stored(nil), log...)
	}
}

// A crash at any point of a run leaves a store that recovers: the iteration-0
// base is durable before anything else, and every prefix of the object-level
// operation log of a DP run — its fulls persisting past Run's return,
// retention GC deleting a full and then its differentials, the Flush at the
// end — replayed into a fresh store, recovers through
// LatestValid to a state no older than the newest full acknowledged in that
// prefix and bit-identical to the live run's state at that iteration.
func TestEveryCrashPrefixRecovers(t *testing.T) {
	opts := core.Options{
		Spec: model.Tiny(2, 24), Workers: 1, Optimizer: "adam", LR: 0.02, Rho: 0.3,
		FullEvery: 4, RetainFulls: 2, BatchSize: 1, QueueCap: 2, Seed: 17,
	}

	// The live trajectory, iteration by iteration, from a twin that does not
	// checkpoint.
	twin, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int64]*State{}
	for {
		live[twin.Iter()] = &State{Iter: twin.Iter(), Params: twin.Params().Clone(), Opt: twin.OptState().Clone()}
		if twin.Iter() == 20 {
			break
		}
		if _, err := twin.Run(1); err != nil {
			t.Fatal(err)
		}
	}

	store, logged := recording(storage.NewMem())
	opts.Store = store
	e, err := core.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Run(10); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	assertSameState(t, "the recorded run against its twin", &State{Iter: e.Iter(), Params: e.Params(), Opt: e.OptState()}, live[20])

	log := logged()
	if c, err := checkpoint.ParseName(log[0].name); err != nil || !c.IsFull || c.Iter != 0 {
		t.Fatalf("first durable object is %s, not the iteration-0 full: differentials could land with no base", log[0].name)
	}
	deletes := 0
	for k := 1; k <= len(log); k++ {
		mem := storage.NewMem()
		newestFull := int64(-1)
		for _, op := range log[:k] {
			if op.deleted {
				if err := mem.Delete(op.name); err != nil {
					t.Fatalf("prefix %d: %v", k, err)
				}
				continue
			}
			if err := storage.WriteObject(mem, op.name, op.data); err != nil {
				t.Fatal(err)
			}
			if c, err := checkpoint.ParseName(op.name); err == nil && c.IsFull {
				newestFull = max(newestFull, c.Iter)
			}
		}
		if log[k-1].deleted {
			deletes++
		}
		st, _, err := LatestValid(mem, ValidateOptions{})
		if err != nil {
			t.Fatalf("crash after operation %d of %d (%s): %v", k, len(log), log[k-1].name, err)
		}
		if st.Iter < newestFull {
			t.Fatalf("crash after operation %d: recovered iteration %d, older than the acknowledged full %d", k, st.Iter, newestFull)
		}
		assertSameState(t, log[k-1].name, st, live[st.Iter])
	}
	if deletes == 0 {
		t.Fatal("retention deleted nothing: the GC windows were not enumerated")
	}
}
