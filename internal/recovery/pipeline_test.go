package recovery

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/compress"
	"lowdiff/internal/obs"
	"lowdiff/internal/optim"
	"lowdiff/internal/parallel"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
	"lowdiff/internal/trace"
)

// fixtureN spans several shards of the fixed chunk grid plus a short tail,
// so that every sharded kernel and merge on the path really is sharded.
const fixtureN = 3*parallel.DefaultChunk + 17

// payload builds one differential payload of the named family.
func payload(t *testing.T, r *tensor.RNG, family string, n int) *compress.Compressed {
	t.Helper()
	dense := tensor.New(n)
	r.FillUniform(dense, -1, 1)
	switch family {
	case "sparse":
		c := &compress.Compressed{Codec: "topk", N: n}
		for i := 0; i < n; i++ {
			if r.Intn(50) == 0 {
				c.Idx = append(c.Idx, int32(i))
				c.Vals = append(c.Vals, dense[i])
			}
		}
		return c
	case "int8":
		c, err := compress.Int8{}.Compress(dense)
		if err != nil {
			t.Fatal(err)
		}
		return c
	case "identity":
		return &compress.Compressed{Codec: "identity", N: n, Vals: dense}
	}
	t.Fatalf("unknown payload family %q", family)
	return nil
}

// buildChain is fillChain into a fresh memory store.
func buildChain(t *testing.T, rule, family string, kind checkpoint.DiffKind, diffs int, seed uint64) *storage.Mem {
	t.Helper()
	store := storage.NewMem()
	fillChain(t, store, rule, family, kind, diffs, seed)
	return store
}

// fillChain writes one full checkpoint at iteration 10 (parameters and
// optimizer state after a few live steps of rule) and diffs differentials
// of the given kind and payload family after it into store.
func fillChain(t *testing.T, store storage.Store, rule, family string, kind checkpoint.DiffKind, diffs int, seed uint64) {
	t.Helper()
	r := tensor.NewRNG(seed)
	var o optim.Optimizer
	switch rule {
	case "adam":
		o = optim.NewAdam(fixtureN, optim.AdamConfig{LR: 0.01})
	case "sgd":
		o = optim.NewSGD(fixtureN, optim.SGDConfig{LR: 0.05})
	case "sgd-momentum":
		o = optim.NewSGD(fixtureN, optim.SGDConfig{LR: 0.05, Momentum: 0.9})
	default:
		t.Fatalf("unknown rule %q", rule)
	}
	params, g := tensor.New(fixtureN), tensor.New(fixtureN)
	r.FillUniform(params, -1, 1)
	for i := 0; i < 3; i++ {
		r.FillUniform(g, -1, 1)
		if err := o.Step(params, g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := checkpoint.SaveFull(store, &checkpoint.Full{Iter: 10, Params: params, Opt: o.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < diffs; i++ {
		iter := int64(11 + i)
		d := &checkpoint.Diff{Kind: kind, FirstIter: iter, LastIter: iter, Count: 1, Payload: payload(t, r, family, fixtureN)}
		if _, err := checkpoint.SaveDiff(store, d); err != nil {
			t.Fatal(err)
		}
	}
}

// serialReference is the retained reference the pipeline is held to: every
// object loaded in order with a nil pool and no prefetch, applied by the
// same loop on the serial kernels.
func serialReference(t *testing.T, store storage.Store) *State {
	t.Helper()
	m, err := checkpoint.Scan(store)
	if err != nil {
		t.Fatal(err)
	}
	base, ok := m.LatestFull()
	if !ok {
		t.Fatal("fixture has no full checkpoint")
	}
	full, err := checkpoint.LoadFull(store, base.Name)
	if err != nil {
		t.Fatal(err)
	}
	var diffs []*checkpoint.Diff
	for _, e := range m.DiffsAfter(full.Iter) {
		d, err := checkpoint.LoadDiff(store, e.Name)
		if err != nil {
			t.Fatal(err)
		}
		diffs = append(diffs, d)
	}
	st, err := (&pipeline{}).replay(full, fromSlice(diffs))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func assertSameState(t *testing.T, what string, got, want *State) {
	t.Helper()
	if got.Iter != want.Iter {
		t.Fatalf("%s: iteration %d, want %d", what, got.Iter, want.Iter)
	}
	if !got.Params.Equal(want.Params) {
		md, _ := got.Params.MaxAbsDiff(want.Params)
		t.Fatalf("%s: parameters differ from the reference (max diff %v)", what, md)
	}
	if got.Opt.Name != want.Opt.Name || got.Opt.Step != want.Opt.Step || len(got.Opt.Slots) != len(want.Opt.Slots) {
		t.Fatalf("%s: optimizer %s step %d (%d slots), want %s step %d (%d slots)", what,
			got.Opt.Name, got.Opt.Step, len(got.Opt.Slots), want.Opt.Name, want.Opt.Step, len(want.Opt.Slots))
	}
	for _, k := range want.Opt.SlotNames() {
		if !tensor.Vector(got.Opt.Slots[k]).Equal(want.Opt.Slots[k]) {
			t.Fatalf("%s: optimizer slot %q differs from the reference", what, k)
		}
	}
}

// (a) The pipeline — prefetch window, pooled decode, sharded kernels, moved
// buffers — reproduces the serial reference bit for bit at every worker
// count, for every rule, payload family and differential kind.
func TestPipelineBitIdenticalToSerialReference(t *testing.T) {
	seed := uint64(100)
	for _, rule := range []string{"adam", "sgd", "sgd-momentum"} {
		for _, family := range []string{"sparse", "int8", "identity"} {
			for _, kind := range []checkpoint.DiffKind{checkpoint.KindGradient, checkpoint.KindStateDelta} {
				seed++
				store := buildChain(t, rule, family, kind, 5, seed)
				want := serialReference(t, store)
				if want.Iter != 15 {
					t.Fatalf("reference stopped at iteration %d", want.Iter)
				}
				for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
					what := fmt.Sprintf("%s/%s/%v at %d workers", rule, family, kind, workers)
					got, n, err := newPipeline(store, workers, lookAhead, nil).strict(math.MaxInt64, false)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if n != 5 {
						t.Fatalf("%s: applied %d differentials, want 5", what, n)
					}
					assertSameState(t, what, got, want)
				}
				got, _, err := LatestValid(store, ValidateOptions{})
				if err != nil {
					t.Fatal(err)
				}
				assertSameState(t, rule+"/"+family+" LatestValid", got, want)
			}
		}
	}
}

// gateStore is the instrumented store of the pipeline tests. It logs every
// operation, counts differential loads in flight (Open requested, reader
// not yet closed), and can hold the Open of differential i until i+1 has
// been requested, hold every differential Open until a given number are in
// flight at once, fail one Open, and check that no differential is asked for
// while a full checkpoint is still being read.
type gateStore struct {
	storage.Store
	gate      bool   // hold each diff Open until the next one is requested
	last      string // with gate: the one differential nothing follows
	holdUntil int    // hold every diff Open until this many have been in flight at once
	failOn    string // Open of this object fails with errInjected

	mu          sync.Mutex
	cond        *sync.Cond
	ops         []string
	requested   map[string]bool
	inFlight    int
	maxInFlight int
	fullsOpen   int
	overlapFull bool // a diff was requested while a full was being read
	timedOut    bool
}

var errInjected = errors.New("injected read fault")

func newGateStore(s storage.Store) *gateStore {
	g := &gateStore{Store: s, requested: map[string]bool{}}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gateStore) log(op, name string) {
	g.mu.Lock()
	g.ops = append(g.ops, op+" "+name)
	g.mu.Unlock()
}

func (g *gateStore) List(prefix string) ([]string, error) {
	g.log("list", prefix)
	return g.Store.List(prefix)
}

func (g *gateStore) Create(name string) (io.WriteCloser, error) {
	g.log("create", name)
	return g.Store.Create(name)
}

func (g *gateStore) Delete(name string) error {
	g.log("delete", name)
	return g.Store.Delete(name)
}

func (g *gateStore) Open(name string) (io.ReadCloser, error) {
	e, err := checkpoint.ParseName(name)
	if err != nil {
		return g.Store.Open(name) // quarantined-*: not a load
	}
	g.mu.Lock()
	g.ops = append(g.ops, "open "+name)
	if e.IsFull {
		g.fullsOpen++
	} else {
		g.requested[name] = true
		g.inFlight++
		g.maxInFlight = max(g.maxInFlight, g.inFlight)
		g.overlapFull = g.overlapFull || g.fullsOpen > 0
		g.cond.Broadcast()
		next := checkpoint.DiffName(e.LastIter+1, e.LastIter+1)
		held := func() bool {
			return g.gate && name != g.last && !g.requested[next] || g.maxInFlight < g.holdUntil
		}
		if held() {
			// A loader with too narrow a window would wait here forever;
			// give up instead.
			timer := time.AfterFunc(10*time.Second, func() {
				g.mu.Lock()
				g.timedOut = true
				g.cond.Broadcast()
				g.mu.Unlock()
			})
			for held() && !g.timedOut {
				g.cond.Wait()
			}
			timer.Stop()
		}
	}
	g.mu.Unlock()
	var r io.ReadCloser
	if name == g.failOn {
		err = errInjected
	} else {
		r, err = g.Store.Open(name)
	}
	if err != nil {
		g.closed(e.IsFull)
		return nil, err
	}
	return &gateReader{ReadCloser: r, g: g, full: e.IsFull}, nil
}

func (g *gateStore) closed(full bool) {
	g.mu.Lock()
	if full {
		g.fullsOpen--
	} else {
		g.inFlight--
	}
	g.mu.Unlock()
}

type gateReader struct {
	io.ReadCloser
	g    *gateStore
	full bool
	once sync.Once
}

func (r *gateReader) Close() error {
	r.once.Do(func() { r.g.closed(r.full) })
	return r.ReadCloser.Close()
}

// snapshot returns the counters under the lock.
func (g *gateStore) snapshot() (ops []string, maxInFlight int, overlapFull, timedOut bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.ops...), g.maxInFlight, g.overlapFull, g.timedOut
}

// (b) On the exact paths the loads really overlap: with every differential's
// Open held until the next one has been requested, a serial loader would
// never finish. The window never exceeds the look-ahead, and no
// differential is asked for while the full is still being read.
func TestExactPathsOverlapLoadsWithinLookAhead(t *testing.T) {
	const diffs = 3 * lookAhead
	mem := buildChain(t, "adam", "sparse", checkpoint.KindGradient, diffs, 7)
	want := serialReference(t, mem)
	for name, run := range map[string]func(storage.Store) (*State, int, error){
		"Latest": Latest,
		"ToIter": func(s storage.Store) (*State, int, error) { return ToIter(s, 10+diffs) },
	} {
		g := newGateStore(mem)
		g.gate, g.last = true, checkpoint.DiffName(10+diffs, 10+diffs)
		got, n, err := run(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, maxInFlight, overlapFull, timedOut := g.snapshot()
		if timedOut {
			t.Fatalf("%s: a differential load waited for its successor in vain: loads do not overlap", name)
		}
		if n != diffs {
			t.Fatalf("%s: applied %d differentials, want %d", name, n, diffs)
		}
		assertSameState(t, name, got, want)
		if maxInFlight < 2 || maxInFlight > lookAhead {
			t.Fatalf("%s: up to %d loads in flight, want 2..%d", name, maxInFlight, lookAhead)
		}
		if overlapFull {
			t.Fatalf("%s: a differential was requested while the full was still being read", name)
		}
	}
}

// (b, continued) The load window is the one constant on every strict path,
// whatever Parallelism says: with every differential Open held until lookAhead
// of them are in flight at once, Latest and LatestParallel{Parallelism: 2}
// both get there (a narrower window would wait in vain) and never go beyond.
// The validating path keeps exactly one. No goroutine outlives any of them.
func TestLoadWindowContract(t *testing.T) {
	const diffs = 3 * lookAhead
	mem := buildChain(t, "sgd", "sparse", checkpoint.KindGradient, diffs, 8)
	base := runtime.NumGoroutine()
	for name, run := range map[string]func(storage.Store) (*State, int, error){
		"Latest":         Latest,
		"LatestParallel": func(s storage.Store) (*State, int, error) { return LatestParallel(s, Options{Parallelism: 2}) },
	} {
		g := newGateStore(mem)
		g.holdUntil = lookAhead
		if _, n, err := run(g); err != nil || n != diffs {
			t.Fatalf("%s: %d differentials, %v", name, n, err)
		}
		_, maxInFlight, overlapFull, timedOut := g.snapshot()
		if timedOut || maxInFlight != lookAhead {
			t.Fatalf("%s: at most %d loads in flight (gave up waiting: %v), want exactly %d", name, maxInFlight, timedOut, lookAhead)
		}
		if overlapFull {
			t.Fatalf("%s: a differential was requested while the full was still being read", name)
		}
		settleGoroutines(t, base)
	}
	g := newGateStore(mem)
	if _, _, err := LatestValid(g, ValidateOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, maxInFlight, overlapFull, _ := g.snapshot(); maxInFlight != 1 || overlapFull {
		t.Fatalf("LatestValid had %d loads in flight (full overlapped: %v), want exactly 1", maxInFlight, overlapFull)
	}
	settleGoroutines(t, base)
}

// jitterStore delays differential Opens by a few hundred microseconds that
// depend on the iteration, so loads in a window complete out of chain order.
type jitterStore struct{ storage.Store }

func (j jitterStore) Open(name string) (io.ReadCloser, error) {
	if e, err := checkpoint.ParseName(name); err == nil && !e.IsFull {
		time.Sleep(time.Duration(e.LastIter*7%4) * 200 * time.Microsecond)
	}
	return j.Store.Open(name)
}

// (b, continued) The window is not a semantic input. A 40-differential chain
// with a kind change in it and a gap that ends it early recovers to the same
// bits at window 1, 2, 8 and 16 with loads arriving out of order: exactly the
// serial reference without the merge, and one merged state with it (the
// pairing is a function of the chain, not of what arrived first).
func TestRecoveredStateIndependentOfWindow(t *testing.T) {
	mem := buildChain(t, "adam", "sparse", checkpoint.KindGradient, 12, 41)
	r := tensor.NewRNG(42)
	for iter := int64(23); iter <= 50; iter++ {
		d := &checkpoint.Diff{Kind: checkpoint.KindStateDelta, FirstIter: iter, LastIter: iter, Count: 1, Payload: payload(t, r, "sparse", fixtureN)}
		if _, err := checkpoint.SaveDiff(mem, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.Delete(checkpoint.DiffName(41, 41)); err != nil {
		t.Fatal(err)
	}
	exact := serialReference(t, mem)
	if exact.Iter != 40 {
		t.Fatalf("reference stopped at iteration %d, want 40 (the gap)", exact.Iter)
	}
	var merged *State
	for _, window := range []int{1, 2, 8, 16} {
		for _, merge := range []bool{false, true} {
			what := fmt.Sprintf("window %d, merge %v", window, merge)
			got, n, err := newPipeline(jitterStore{mem}, 2, window, nil).strict(math.MaxInt64, merge)
			if err != nil || n != 30 {
				t.Fatalf("%s: %d differentials, %v", what, n, err)
			}
			switch {
			case !merge:
				assertSameState(t, what, got, exact)
			case merged == nil:
				merged = got
			default:
				assertSameState(t, what, got, merged)
			}
		}
	}
	if merged.Params.Equal(exact.Params) {
		t.Fatal("the merged replay equals the exact one: the fixture does not exercise the merge")
	}
}

// A rejected save (checkpoint.TestRejectedSaveLeavesStoreUnchanged) must not
// poison recovery: after a differential and a full that fail to encode were
// "saved" under the names that would continue the chain, every kind of store
// still recovers the chain it holds, bit for bit.
func TestLatestAfterRejectedSave(t *testing.T) {
	file, err := storage.NewFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := storage.NewTiered(storage.NewMem(), 64<<20, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	for what, store := range map[string]storage.Store{"Mem": storage.NewMem(), "File": file, "Tiered": tiered} {
		fillChain(t, store, "adam", "sparse", checkpoint.KindGradient, 4, 51)
		want := serialReference(t, store)
		bad := &checkpoint.Diff{Kind: checkpoint.KindGradient, FirstIter: 15, LastIter: 15, Payload: payload(t, tensor.NewRNG(1), "sparse", fixtureN)}
		if _, err := checkpoint.SaveDiff(store, bad); err == nil {
			t.Fatalf("%s: a differential with count 0 was saved", what)
		}
		full := &checkpoint.Full{Iter: 20, Params: want.Params.Clone(), Opt: want.Opt.Clone()}
		full.Opt.Name = strings.Repeat("x", math.MaxUint16+1)
		if _, err := checkpoint.SaveFull(store, full); err == nil {
			t.Fatalf("%s: a full with an unframeable optimizer name was saved", what)
		}
		got, n, err := Latest(store)
		if err != nil || n != 4 {
			t.Fatalf("%s: Latest after the rejected saves: %d differentials, %v", what, n, err)
		}
		assertSameState(t, what, got, want)
	}
}

// settleGoroutines waits for the goroutine count to come back to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the recovery", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// (c) A read fault or a corrupt object at position k of the chain: the exact
// paths fail with the first error in chain order, worded as ever, and leave
// no goroutine behind however many loads were in flight.
func TestStrictPathsFailAtFirstDamage(t *testing.T) {
	const diffs, k = 2 * lookAhead, 5
	bad := checkpoint.DiffName(10+k, 10+k)
	base := runtime.NumGoroutine()

	// A read fault.
	mem := buildChain(t, "adam", "sparse", checkpoint.KindGradient, diffs, 9)
	want := fmt.Sprintf("recovery: load %s: %v", bad, errInjected)
	for name, run := range map[string]func(storage.Store) error{
		"Latest":         func(s storage.Store) error { _, _, err := Latest(s); return err },
		"ToIter":         func(s storage.Store) error { _, _, err := ToIter(s, 10+diffs); return err },
		"LatestParallel": func(s storage.Store) error { _, _, err := LatestParallel(s, Options{Parallelism: 2}); return err },
	} {
		g := newGateStore(mem)
		g.failOn, g.holdUntil = bad, lookAhead // objects past the damaged one are in flight when it fails
		if err := run(g); err == nil || err.Error() != want || !errors.Is(err, errInjected) {
			t.Fatalf("%s: error %q, want %q", name, err, want)
		}
		if _, maxInFlight, _, timedOut := g.snapshot(); timedOut || maxInFlight != lookAhead {
			t.Fatalf("%s: %d loads in flight at the fault (gave up waiting: %v), want %d", name, maxInFlight, timedOut, lookAhead)
		}
		settleGoroutines(t, base)
	}

	// A corrupt object: the cause is whatever decoding it reports.
	flipBit(t, mem, bad, 400)
	_, cause := checkpoint.LoadDiff(mem, bad)
	if cause == nil {
		t.Fatal("bit flip left the object decodable")
	}
	want = fmt.Sprintf("recovery: load %s: %v", bad, cause)
	if _, _, err := Latest(mem); err == nil || err.Error() != want {
		t.Fatalf("Latest over a corrupt object: error %q, want %q", err, want)
	}
	settleGoroutines(t, base)
}

// (c, continued) On the validating path the same damage truncates the chain:
// the report, the quarantine list, the event log and the very sequence of
// store operations are what a strictly serial validate-then-replay produces
// — in particular no object past k is ever opened.
func TestLatestValidAtDamageIsSerialAndReproducible(t *testing.T) {
	const diffs, k = 8, 4
	name := func(i int) string { return checkpoint.DiffName(int64(10+i), int64(10+i)) }
	fullName := checkpoint.FullName(10)
	base := runtime.NumGoroutine()

	for _, damage := range []string{"fault", "corrupt"} {
		mem := buildChain(t, "adam", "sparse", checkpoint.KindGradient, diffs, 12)
		g := newGateStore(mem)
		wantOps := []string{"list full-", "list diff-", "open " + fullName}
		for i := 1; i < k; i++ {
			wantOps = append(wantOps, "open "+name(i))
		}
		// A damaged object is tried LoadRetries times, then moved aside.
		wantOps = append(wantOps, "open "+name(k), "open "+name(k), "open "+name(k),
			"open "+name(k), "create "+QuarantinePrefix+name(k), "delete "+name(k))
		var wantErr string
		if damage == "fault" {
			g.failOn = name(k)
			wantErr = errInjected.Error()
			// The quarantine's own forensic read fails too: nothing to copy.
			wantOps = append(wantOps[:len(wantOps)-2], "delete "+name(k))
		} else {
			flipBit(t, mem, name(k), 400)
			_, cause := checkpoint.LoadDiff(mem, name(k))
			wantErr = cause.Error()
		}

		var events bytes.Buffer
		st, rep, err := LatestValid(g, ValidateOptions{Quarantine: true, Events: obs.NewEventLog(&events)})
		if err != nil {
			t.Fatalf("%s: %v", damage, err)
		}
		if st.Iter != int64(10+k-1) || rep.RecoverableIter != st.Iter || rep.BaseName != fullName || rep.BaseIter != 10 {
			t.Fatalf("%s: recovered to %d (report %+v), want %d", damage, st.Iter, rep, 10+k-1)
		}
		// The valid prefix replays exactly like the first k-1 of the whole chain.
		prefix, _, err := ToIter(buildChain(t, "adam", "sparse", checkpoint.KindGradient, diffs, 12), int64(10+k-1))
		if err != nil {
			t.Fatal(err)
		}
		assertSameState(t, damage, st, prefix)

		if len(rep.Objects) != k+1 {
			t.Fatalf("%s: report lists %d objects, want %d", damage, len(rep.Objects), k+1)
		}
		for i, o := range rep.Objects {
			wantName, wantStatus := fullName, StatusValid
			if i > 0 {
				wantName = name(i)
			}
			if i == k {
				wantStatus = StatusCorrupt
			}
			if o.Name != wantName || o.IsFull != (i == 0) || o.Status != wantStatus || (o.Err != nil) != (i == k) {
				t.Fatalf("%s: report entry %d is %+v", damage, i, o)
			}
		}
		if got := rep.Objects[k].Err.Error(); got != wantErr {
			t.Fatalf("%s: damaged object reported as %q, want %q", damage, got, wantErr)
		}
		if !reflect.DeepEqual(rep.Quarantined, []string{name(k)}) {
			t.Fatalf("%s: quarantined %v", damage, rep.Quarantined)
		}
		wantEvents := fmt.Sprintf(`{"seq":1,"type":"recover.anchor","fields":{"iter":10,"object":%q}}
{"seq":2,"type":"recover.quarantine","fields":{"object":%q,"status":"corrupt"}}
{"seq":3,"type":"recover.complete","fields":{"base_iter":10,"diffs":%d,"iter":%d,"quarantined":1}}
`, fullName, name(k), k-1, 10+k-1)
		if events.String() != wantEvents {
			t.Fatalf("%s: event log\n%s\nwant\n%s", damage, events.String(), wantEvents)
		}
		ops, maxInFlight, _, _ := g.snapshot()
		if !reflect.DeepEqual(ops, wantOps) {
			t.Fatalf("%s: store operations\n%s\nwant\n%s", damage, strings.Join(ops, "\n"), strings.Join(wantOps, "\n"))
		}
		if maxInFlight != 1 {
			t.Fatalf("%s: %d loads in flight on the validating path", damage, maxInFlight)
		}
	}
	settleGoroutines(t, base)
}

// stateDigest hashes everything a recovered state holds.
func stateDigest(st *State) string {
	h := sha256.New()
	put := func(v []float32) {
		buf := make([]byte, 4*len(v))
		for i, x := range v {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		h.Write(buf)
	}
	fmt.Fprintf(h, "%d %s %d\n", st.Iter, st.Opt.Name, st.Opt.Step)
	put(st.Params)
	for _, k := range st.Opt.SlotNames() {
		put(st.Opt.Slots[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// (d) LatestParallel keeps the parent's load-all-then-pairwise-merge order:
// on a fixed fixture (an odd chain, so one differential rides up a level
// unpaired) the recovered state is, at every Parallelism, the one the
// goroutine-and-semaphore tree of the previous implementation produced.
// The digest was taken from that implementation on this same fixture.
func TestLatestParallelMatchesPreviousTreeBitForBit(t *testing.T) {
	const parentDigest = "88737a33af41392da1f719142a0837c325d0290cf33365da8c491354cef4cd38"
	store := buildChain(t, "adam", "sparse", checkpoint.KindGradient, 9, 21)
	for _, par := range []int{1, 2, 8} {
		st, n, err := LatestParallel(store, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if n != 9 || st.Iter != 19 {
			t.Fatalf("Parallelism %d: %d differentials to iteration %d", par, n, st.Iter)
		}
		if got := stateDigest(st); got != parentDigest {
			t.Fatalf("Parallelism %d: state digest %s, want the previous implementation's %s", par, got, parentDigest)
		}
	}
}

// Strict recovery no longer trusts object names: a differential copied
// under another's name decodes cleanly (its CRC is intact) but would step
// the optimizer with the wrong iteration's gradient. Every exact path
// refuses it; the validating path truncates there, as it always did.
func TestStrictPathsRejectCrossCopiedObject(t *testing.T) {
	store := buildChain(t, "adam", "sparse", checkpoint.KindGradient, 6, 33)
	data, err := storage.ReadObject(store, checkpoint.DiffName(14, 14))
	if err != nil {
		t.Fatal(err)
	}
	victim := checkpoint.DiffName(13, 13)
	if err := storage.WriteObject(store, victim, data); err != nil {
		t.Fatal(err)
	}
	want := "recovery: " + victim + " decodes to range [14,14], name says [13,13]"
	for name, run := range map[string]func() error{
		"Latest":         func() error { _, _, err := Latest(store); return err },
		"ToIter":         func() error { _, _, err := ToIter(store, 16); return err },
		"LatestParallel": func() error { _, _, err := LatestParallel(store, Options{}); return err },
	} {
		if err := run(); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want one naming the mismatch %q", name, err, want)
		}
	}
	// Before the misnamed object the chain is fine.
	if st, n, err := ToIter(store, 12); err != nil || st.Iter != 12 || n != 2 {
		t.Fatalf("ToIter(12): state %v, %d applied, %v", st, n, err)
	}
	st, rep, err := LatestValid(store, ValidateOptions{})
	if err != nil || st.Iter != 12 || rep.Clean() {
		t.Fatalf("LatestValid: iteration %v, report %+v, %v", st, rep, err)
	}
	// A full under the wrong name is refused the same way.
	full, err := storage.ReadObject(store, checkpoint.FullName(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteObject(store, checkpoint.FullName(40), full); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Latest(store); err == nil || !strings.Contains(err.Error(), "decodes to iteration 10, name says 40") {
		t.Fatalf("Latest over a misnamed full: %v", err)
	}
}

// An explicit list handed to Replay must continue from the full, too.
func TestReplayRejectsNonContiguousList(t *testing.T) {
	store := buildChain(t, "adam", "sparse", checkpoint.KindGradient, 3, 34)
	full, err := checkpoint.LoadFull(store, checkpoint.FullName(10))
	if err != nil {
		t.Fatal(err)
	}
	d12, err := checkpoint.LoadDiff(store, checkpoint.DiffName(12, 12))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(full, []*checkpoint.Diff{d12}); err == nil || !strings.Contains(err.Error(), "does not continue from iteration 10") {
		t.Fatalf("Replay of a list with a hole: %v", err)
	}
	// Replay copies the full in: it is untouched and reusable.
	before, beforeOpt := full.Params.Clone(), full.Opt.Clone()
	d11, err := checkpoint.LoadDiff(store, checkpoint.DiffName(11, 11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if st, err := Replay(full, []*checkpoint.Diff{d11, d12}); err != nil || st.Iter != 12 {
			t.Fatalf("Replay: %v, %v", st, err)
		}
	}
	if !before.Equal(full.Params) {
		t.Fatal("Replay mutated the caller's full checkpoint")
	}
	for name, slot := range beforeOpt.Slots {
		if !tensor.Vector(slot).Equal(full.Opt.Slots[name]) {
			t.Fatalf("Replay mutated the caller's optimizer slot %q", name)
		}
	}
	if len(beforeOpt.Slots) == 0 || full.Opt.Step != beforeOpt.Step {
		t.Fatalf("fixture has %d moment slots; step %d, was %d", len(beforeOpt.Slots), full.Opt.Step, beforeOpt.Step)
	}
}

// Recovery is no longer one opaque span: with a recorder, every path
// records a recovery envelope on the recovery track with its merge and
// apply spans nested inside it, from the existing phase taxonomy only.
func TestRecoverySpansNestInEnvelope(t *testing.T) {
	store := buildChain(t, "adam", "sparse", checkpoint.KindGradient, 6, 41)
	check := func(what string, rec *trace.Recorder, merges, applies int) {
		t.Helper()
		var env *trace.Event
		counts := map[string]int{}
		events := rec.Events()
		for i, e := range events {
			if e.Track != trace.TrackRecovery {
				t.Fatalf("%s: span %s on track %s", what, e.Name, e.Track)
			}
			counts[e.Name]++
			if e.Name == trace.PhaseRecovery {
				env = &events[i]
			}
		}
		if counts[trace.PhaseRecovery] != 1 || counts[trace.PhaseMerge] != merges || counts[trace.PhaseApply] != applies || len(counts) > 3 {
			t.Fatalf("%s: spans %v, want 1 recovery, %d merge, %d apply", what, counts, merges, applies)
		}
		for _, e := range events {
			if e.Start < env.Start || e.Start+e.Dur > env.Start+env.Dur {
				t.Fatalf("%s: %s span [%v,+%v] outside the envelope [%v,+%v]", what, e.Name, e.Start, e.Dur, env.Start, env.Dur)
			}
		}
	}
	rec := trace.New()
	if _, _, err := LatestParallel(store, Options{Parallelism: 2, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	check("LatestParallel", rec, 1, 1) // six differentials merge into one
	rec = trace.New()
	if _, _, err := LatestValid(store, ValidateOptions{Trace: rec}); err != nil {
		t.Fatal(err)
	}
	check("LatestValid", rec, 0, 6)
	// FromPeers: the storage part and the peer window share one envelope.
	e, peerStore, _ := trainPeer(t, 2, 4, 8, 10)
	rec = trace.New()
	if _, _, err := FromPeers(peerStore, e.Peers(), ValidateOptions{Trace: rec}); err != nil {
		t.Fatal(err)
	}
	check("FromPeers", rec, 0, 2) // fulls only in the store; iterations 9 and 10 from a window
}
