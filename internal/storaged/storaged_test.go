package storaged_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/obs"
	"lowdiff/internal/storage"
	"lowdiff/internal/storaged"
)

// testServer is a daemon plus the goroutine count from before it started,
// which quiesce holds it to.
type testServer struct {
	*storaged.Server
	goroutines int
}

// startServer brings up a daemon on an ephemeral port. A nil OpenStore
// gets a fresh in-memory store per tenant.
func startServer(t testing.TB, cfg storaged.Config) *testServer {
	t.Helper()
	if cfg.OpenStore == nil {
		cfg.OpenStore = func(string) (storage.Store, error) { return storage.NewMem(), nil }
	}
	before := runtime.NumGoroutine()
	srv, err := storaged.Start("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &testServer{Server: srv, goroutines: before}
}

// quiesce ends a test: it closes the daemon, which waits for every
// connection handler, and then requires that none of the named tenants
// still has staged bytes in flight and that the daemon's goroutines are
// gone. Every test calls it last, so a handler that leaks a staging or
// outlives its connection fails the test that caused it.
func quiesce(t testing.TB, srv *testServer, tenants ...string) {
	t.Helper()
	if err := srv.Close(); err != nil {
		t.Errorf("daemon close: %v", err)
	}
	for _, name := range tenants {
		if u, ok := srv.Usage(name); ok && u.InflightBytes != 0 {
			t.Errorf("tenant %s: %d bytes still in flight after shutdown", name, u.InflightBytes)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > srv.goroutines {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after shutdown, %d before start", runtime.NumGoroutine(), srv.goroutines)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func dialTenant(t testing.TB, srv *testServer, tenant string, opts storage.RemoteOptions) *storage.Remote {
	t.Helper()
	r, err := storage.DialRemote(srv.Addr(), tenant, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.Close() })
	return r
}

// TestRemoteStoreContract exercises the full Store interface through a
// live daemon: the remote client must be indistinguishable from a local
// store, including IsNotExist mapping across the wire.
func TestRemoteStoreContract(t *testing.T) {
	srv := startServer(t, storaged.Config{})
	r := dialTenant(t, srv, "contract", storage.RemoteOptions{})

	objects := map[string][]byte{
		"full-000000000000.ckpt": bytes.Repeat([]byte{0x5a}, 3000),
		"diff-000000000001.ckpt": []byte("small"),
		"diff-000000000002.ckpt": {},
	}
	for name, data := range objects {
		if err := storage.WriteObject(r, name, data); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
	for name, want := range objects {
		got, err := storage.ReadObject(r, name)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s round trip: got %d bytes, want %d", name, len(got), len(want))
		}
		size, err := r.Size(name)
		if err != nil {
			t.Fatalf("size %s: %v", name, err)
		}
		if size != int64(len(want)) {
			t.Fatalf("size %s = %d, want %d", name, size, len(want))
		}
	}

	names, err := r.List("diff-")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) != 2 || names[0] != "diff-000000000001.ckpt" || names[1] != "diff-000000000002.ckpt" {
		t.Fatalf("List(diff-) = %v", names)
	}

	if _, err := storage.ReadObject(r, "missing"); !storage.IsNotExist(err) {
		t.Fatalf("read missing: got %v, want not-exist", err)
	}
	if _, err := r.Size("missing"); !storage.IsNotExist(err) {
		t.Fatalf("size missing: got %v, want not-exist", err)
	}
	if err := r.Delete("missing"); !storage.IsNotExist(err) {
		t.Fatalf("delete missing: got %v, want not-exist", err)
	}
	if err := r.Delete("diff-000000000001.ckpt"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Size("diff-000000000001.ckpt"); !storage.IsNotExist(err) {
		t.Fatal("deleted object still has a size")
	}
	quiesce(t, srv, "contract")
}

// countingDial is a RemoteOptions.Dial that counts the connections a client
// opens, so a test can require that a rejected upload left its pooled
// connection usable instead of costing a reconnect.
func countingDial(dials *atomic.Int64) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", addr)
	}
}

// TestQuotaEnforced checks that a commit pushing the tenant over its byte
// quota fails with ErrQuotaExceeded, leaves the store unchanged, and that
// same-name overwrites are charged by delta, not by gross size. The
// over-quota upload goes out in 8-byte chunks, so the rejection lands in
// the middle of a stream of DATA frames; the client must come out of it
// with the same pooled connection, still usable.
func TestQuotaEnforced(t *testing.T) {
	reg := obs.New()
	srv := startServer(t, storaged.Config{
		Tenants:  map[string]storaged.TenantConfig{"capped": {QuotaBytes: 100}},
		Registry: reg,
	})
	var dials atomic.Int64
	r := dialTenant(t, srv, "capped", storage.RemoteOptions{ChunkSize: 8, Dial: countingDial(&dials)})

	if err := storage.WriteObject(r, "obj-a", bytes.Repeat([]byte{1}, 60)); err != nil {
		t.Fatal(err)
	}
	// 60 committed + 40 staged is the quota exactly: the sixth of these
	// fifteen frames is the one over it.
	w, err := r.Create("obj-b")
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Write(bytes.Repeat([]byte{2}, 120))
	if !errors.Is(err, storage.ErrQuotaExceeded) {
		t.Fatalf("over-quota write: got %v, want ErrQuotaExceeded", err)
	}
	if err := w.Close(); !errors.Is(err, storage.ErrQuotaExceeded) {
		t.Fatalf("close after over-quota write: got %v, want ErrQuotaExceeded", err)
	}
	if u, _ := srv.Usage("capped"); u.InflightBytes != 0 {
		t.Fatalf("rejected upload left %d bytes in flight", u.InflightBytes)
	}

	// The rejected object must not exist and the survivor must be intact.
	names, err := r.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "obj-a" {
		t.Fatalf("store after quota reject: %v, want [obj-a]", names)
	}
	got, err := storage.ReadObject(r, "obj-a")
	if err != nil || len(got) != 60 {
		t.Fatalf("survivor damaged: %d bytes, err %v", len(got), err)
	}

	// Overwriting obj-a with 90 bytes is a +30 delta: still under quota.
	if err := storage.WriteObject(r, "obj-a", bytes.Repeat([]byte{3}, 90)); err != nil {
		t.Fatalf("delta-accounted overwrite: %v", err)
	}
	u, err := r.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if u.UsedBytes != 90 || u.Objects != 1 || u.QuotaBytes != 100 {
		t.Fatalf("usage = %+v, want used 90, objects 1, quota 100", u)
	}
	if v := reg.Counter("storaged_quota_rejects_total", obs.L("tenant", "capped")).Value(); v != 1 {
		t.Fatalf("quota reject counter = %d, want 1", v)
	}
	// Everything above, the rejection included, ran on the one connection
	// DialRemote opened.
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want 1", n)
	}
	quiesce(t, srv, "capped")
}

// TestBackpressureRetry holds staged bytes above the tenant's in-flight
// bound and checks that a second CREATE is shed with RETRY frames, that
// the client backs off through its Sleep seam before giving up with
// ErrBackpressure, and that admission recovers once the first upload
// commits.
func TestBackpressureRetry(t *testing.T) {
	reg := obs.New()
	srv := startServer(t, storaged.Config{
		DefaultMaxInflightBytes: 10,
		RetryHintMillis:         1,
		Registry:                reg,
	})
	var sleeps atomic.Int64
	opts := storage.RemoteOptions{
		MaxRetries: 3,
		Seed:       99,
		ChunkSize:  8, // force flushed DATA frames while the writer is open
		Sleep:      func(time.Duration) { sleeps.Add(1) },
	}
	r := dialTenant(t, srv, "busy", opts)

	w, err := r.Create("held")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte{7}, 16)); err != nil {
		t.Fatal(err) // two flushed chunks: 16 staged bytes >= the 10-byte bound
	}

	_, err = r.Create("shed")
	if !errors.Is(err, storage.ErrBackpressure) {
		t.Fatalf("create under load: got %v, want ErrBackpressure", err)
	}
	if got := sleeps.Load(); got != 3 {
		t.Fatalf("client slept %d times, want 3 (MaxRetries)", got)
	}
	if v := reg.Counter("storaged_retries_total", obs.L("tenant", "busy")).Value(); v < 4 {
		t.Fatalf("server RETRY counter = %d, want >= 4", v)
	}

	if err := w.Close(); err != nil { // commit releases the staged bytes
		t.Fatal(err)
	}
	if err := storage.WriteObject(r, "shed", []byte("ok")); err != nil {
		t.Fatalf("create after load drained: %v", err)
	}
	u, ok := srv.Usage("busy")
	if !ok || u.InflightBytes != 0 {
		t.Fatalf("inflight after commits = %+v (ok %v), want 0", u, ok)
	}
	quiesce(t, srv, "busy")
}

// TestTransientBackingFault drives commits into a backing store that
// fails a bounded run of writes: each failed commit surfaces as an error
// with nothing published, and a plain retry rides out the outage. A failed
// commit must hand the connection back usable: the whole test, its uploads
// in 4-byte chunks, runs on the one connection DialRemote opened.
func TestTransientBackingFault(t *testing.T) {
	var creates atomic.Int64 // the first succeeds, the next two fail
	srv := startServer(t, storaged.Config{
		OpenStore: func(string) (storage.Store, error) {
			return &storage.Interposer{Store: storage.NewMem(), Op: func(op, _ string, call func() error) error {
				if op == "create" {
					if n := creates.Add(1); n == 2 || n == 3 {
						return storage.ErrInjectedFault
					}
				}
				return call()
			}}, nil
		},
	})
	var dials atomic.Int64
	r := dialTenant(t, srv, "flaky", storage.RemoteOptions{ChunkSize: 4, Dial: countingDial(&dials)})

	if err := storage.WriteObject(r, "obj-0", []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives the outage")
	attempts := 0
	for {
		attempts++
		err := storage.WriteObject(r, "obj-1", payload)
		if err == nil {
			break
		}
		if storage.IsNotExist(err) || errors.Is(err, storage.ErrQuotaExceeded) {
			t.Fatalf("injected fault surfaced as %v", err)
		}
		// The failed commit must not have published anything, nor left
		// anything staged.
		if _, serr := r.Size("obj-1"); !storage.IsNotExist(serr) {
			t.Fatalf("torn object visible after failed commit (size err %v)", serr)
		}
		if u, _ := srv.Usage("flaky"); u.InflightBytes != 0 {
			t.Fatalf("failed commit left %d bytes in flight", u.InflightBytes)
		}
		if attempts > 10 {
			t.Fatal("writes still failing after the transient window")
		}
	}
	if attempts != 3 {
		t.Fatalf("succeeded after %d attempts, want 3 (2 injected faults)", attempts)
	}
	if n := creates.Load(); n != 4 {
		t.Fatalf("backing store saw %d creates, want 4 (1 + 2 rejected + 1)", n)
	}
	got, err := storage.ReadObject(r, "obj-1")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-outage read: %q, err %v", got, err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want 1", n)
	}
	quiesce(t, srv, "flaky")
}

// TestCreateRefusesInvalidNames: CREATE of a name no store may hold — here
// one a File store would hide as a staging temp — is refused before anything
// is staged, on a connection that stays usable, so the tenant's usage after
// a restart, rebuilt from the store, is what the store lists. (Accepted, the
// object counted against the quota and GET served it, but List never showed
// it and the rebuilt usage forgot it.)
func TestCreateRefusesInvalidNames(t *testing.T) {
	root := t.TempDir()
	cfg := storaged.Config{OpenStore: func(tenant string) (storage.Store, error) {
		return storage.NewFile(filepath.Join(root, tenant))
	}}
	srv := startServer(t, cfg)
	var dials atomic.Int64
	r := dialTenant(t, srv, "names", storage.RemoteOptions{Dial: countingDial(&dials)})
	if err := storage.WriteObject(r, "x.tmp.1", make([]byte, 500)); err == nil {
		t.Fatal("CREATE x.tmp.1 was accepted")
	}
	if u, _ := srv.Usage("names"); u != (storage.Usage{}) {
		t.Fatalf("refused CREATE left usage %+v", u)
	}
	if err := storage.WriteObject(r, "kept", make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("client dialed %d connections, want 1", n)
	}
	quiesce(t, srv, "names")

	srv = startServer(t, cfg)
	r = dialTenant(t, srv, "names", storage.RemoteOptions{})
	names, err := r.List("")
	if err != nil {
		t.Fatal(err)
	}
	var listed int64
	for _, n := range names {
		size, err := r.Size(n)
		if err != nil {
			t.Fatal(err)
		}
		listed += size
	}
	u, err := r.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if u.UsedBytes != listed || u.Objects != int64(len(names)) || u.Objects != 1 {
		t.Fatalf("usage after restart %+v, store lists %v (%d bytes)", u, names, listed)
	}
	quiesce(t, srv, "names")
}

// TestSeededChaosEventuallyCommits retries uploads against a chaotic
// backing store until they land, then verifies the committed bytes are
// exact — torn or corrupted objects must never become visible.
func TestSeededChaosEventuallyCommits(t *testing.T) {
	var chaos *storage.Chaos
	srv := startServer(t, storaged.Config{
		OpenStore: func(string) (storage.Store, error) {
			c, err := storage.NewChaos(storage.NewMem(), storage.ChaosConfig{
				Seed:          42,
				WriteFailProb: 0.5,
			})
			chaos = c
			return c, err
		},
	})
	r := dialTenant(t, srv, "chaotic", storage.RemoteOptions{})

	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("diff-%012d.ckpt", i)
		payload := bytes.Repeat([]byte{byte(i + 1)}, 200+i)
		ok := false
		for attempt := 0; attempt < 64 && !ok; attempt++ {
			ok = storage.WriteObject(r, name, payload) == nil
		}
		if !ok {
			t.Fatalf("%s never committed under chaos", name)
		}
		got, err := storage.ReadObject(r, name)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: committed bytes wrong (err %v)", name, err)
		}
	}
	if chaos.Counters().WriteFaults == 0 {
		t.Fatal("chaos injected no write faults; the test proved nothing")
	}
	u, err := r.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if u.Objects != 8 {
		t.Fatalf("objects = %d, want 8", u.Objects)
	}
	quiesce(t, srv, "chaotic")
}

// TestConcurrentSameNameLastCloseWins opens two streamed uploads for the
// same object from two clients and closes them in reverse order: the
// later Close must win, and accounting must reflect the survivor only.
func TestConcurrentSameNameLastCloseWins(t *testing.T) {
	srv := startServer(t, storaged.Config{})
	r1 := dialTenant(t, srv, "racy", storage.RemoteOptions{})
	r2 := dialTenant(t, srv, "racy", storage.RemoteOptions{})

	w1, err := r1.Create("contested")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := r2.Create("contested")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Write([]byte("first writer, closed last")); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := storage.ReadObject(r1, "contested")
	if err != nil || string(got) != "first writer, closed last" {
		t.Fatalf("read after race: %q, err %v", got, err)
	}
	u, ok := srv.Usage("racy")
	if !ok || u.Objects != 1 || u.UsedBytes != int64(len("first writer, closed last")) {
		t.Fatalf("usage after race = %+v, want 1 object of %d bytes", u, len("first writer, closed last"))
	}
	quiesce(t, srv, "racy")
}

// TestValidateFullsFlagsGarbage commits an undecodable object under a
// full-checkpoint name with chain validation on: the commit itself still
// succeeds (validation is advisory) but the failure counter must fire.
func TestValidateFullsFlagsGarbage(t *testing.T) {
	reg := obs.New()
	srv := startServer(t, storaged.Config{ValidateFulls: true, Registry: reg})
	r := dialTenant(t, srv, "audited", storage.RemoteOptions{})

	name := checkpoint.FullName(0)
	if err := storage.WriteObject(r, name, []byte("not a checkpoint")); err != nil {
		t.Fatalf("advisory validation must not block the commit: %v", err)
	}
	if _, err := r.Size(name); err != nil {
		t.Fatalf("committed object missing: %v", err)
	}
	if v := reg.Counter("storaged_validations_total", obs.L("tenant", "audited")).Value(); v != 1 {
		t.Fatalf("validations = %d, want 1", v)
	}
	if v := reg.Counter("storaged_validation_failures_total", obs.L("tenant", "audited")).Value(); v != 1 {
		t.Fatalf("validation failures = %d, want 1", v)
	}
	// Non-full names must not trigger validation at all.
	if err := storage.WriteObject(r, "diff-000000000001.ckpt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("storaged_validations_total", obs.L("tenant", "audited")).Value(); v != 1 {
		t.Fatalf("diff commit triggered validation (count %d)", v)
	}
	quiesce(t, srv, "audited")
}

// TestAccountingRebuildOnRestart pre-populates a backing store before the
// daemon ever sees the tenant: first contact must rebuild used-byte and
// object counts from the store so quotas survive a daemon restart.
func TestAccountingRebuildOnRestart(t *testing.T) {
	mem := storage.NewMem()
	for i, size := range []int{10, 20, 30} {
		if err := storage.WriteObject(mem, fmt.Sprintf("pre-%d", i), make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	srv := startServer(t, storaged.Config{
		OpenStore: func(string) (storage.Store, error) { return mem, nil },
		Tenants:   map[string]storaged.TenantConfig{"returning": {QuotaBytes: 70}},
	})
	r := dialTenant(t, srv, "returning", storage.RemoteOptions{})

	u, err := r.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if u.UsedBytes != 60 || u.Objects != 3 {
		t.Fatalf("rebuilt usage = %+v, want 60 bytes across 3 objects", u)
	}
	// Pre-existing bytes count against the quota: 60 + 20 > 70.
	if err := storage.WriteObject(r, "post", make([]byte, 20)); !errors.Is(err, storage.ErrQuotaExceeded) {
		t.Fatalf("quota ignored rebuilt accounting: %v", err)
	}
	if err := storage.WriteObject(r, "post", make([]byte, 10)); err != nil {
		t.Fatalf("in-quota write after rebuild: %v", err)
	}
	quiesce(t, srv, "returning")
}

// TestTieredBackingStore runs the daemon over a memory->disk tiered store
// small enough to force eviction and checks every object reads back
// exactly, wherever it landed.
func TestTieredBackingStore(t *testing.T) {
	var tiered *storage.Tiered
	srv := startServer(t, storaged.Config{
		OpenStore: func(string) (storage.Store, error) {
			tr, err := storage.NewTiered(storage.NewMem(), 256, 128)
			tiered = tr
			return tr, err
		},
	})
	r := dialTenant(t, srv, "tiered", storage.RemoteOptions{})

	payloads := make(map[string][]byte)
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("obj-%02d", i)
		payloads[name] = bytes.Repeat([]byte{byte(0x10 + i)}, 100)
		if err := storage.WriteObject(r, name, payloads[name]); err != nil {
			t.Fatal(err)
		}
	}
	if tiered.Evictions() == 0 {
		t.Fatal("1000 bytes through a 256-byte hot tier caused no evictions")
	}
	for name, want := range payloads {
		got, err := storage.ReadObject(r, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after spill: err %v", name, err)
		}
	}
	names, err := r.List("")
	if err != nil || len(names) != 10 {
		t.Fatalf("List = %d names, err %v", len(names), err)
	}
	quiesce(t, srv, "tiered")
}

// TestBadHelloRejected covers tenant-name validation and protocol-version
// checking at connection setup.
func TestBadHelloRejected(t *testing.T) {
	srv := startServer(t, storaged.Config{})
	for _, tenant := range []string{"", "../escape", "a/b", ".hidden"} {
		r, err := storage.DialRemote(srv.Addr(), tenant, storage.RemoteOptions{})
		if err == nil {
			err = storage.WriteObject(r, "x", []byte("y"))
			_ = r.Close()
		}
		if err == nil {
			t.Fatalf("tenant %q was accepted", tenant)
		}
	}

	// A wrong protocol version in HELLO must be refused.
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hello := storage.AppendString([]byte{storage.ProtoVersion + 1}, "tenant")
	if err := storage.WriteFrame(nc, storage.OpHello, hello); err != nil {
		t.Fatal(err)
	}
	op, _, err := storage.ReadFrame(nc, storage.DefaultMaxFrame)
	if err != nil || op != storage.OpErr {
		t.Fatalf("future-version HELLO: op %#x, err %v, want ERR frame", op, err)
	}
	quiesce(t, srv)
}

// TestInflightReleasedOnDisconnect stages bytes on a raw connection and
// drops it without COMMIT or ABORT: the server must release the staged
// in-flight bytes so the tenant is not wedged below its admission bound.
func TestInflightReleasedOnDisconnect(t *testing.T) {
	srv := startServer(t, storaged.Config{DefaultMaxInflightBytes: 100})
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	call := func(op byte, body []byte) byte {
		t.Helper()
		if err := storage.WriteFrame(nc, op, body); err != nil {
			t.Fatal(err)
		}
		reply, _, err := storage.ReadFrame(nc, storage.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		return reply
	}
	if op := call(storage.OpHello, storage.AppendString([]byte{storage.ProtoVersion}, "dropped")); op != storage.OpOK {
		t.Fatalf("HELLO: %#x", op)
	}
	if op := call(storage.OpCreate, storage.AppendString(nil, "abandoned")); op != storage.OpOK {
		t.Fatalf("CREATE: %#x", op)
	}
	if op := call(storage.OpData, make([]byte, 64)); op != storage.OpOK {
		t.Fatalf("DATA: %#x", op)
	}
	u, ok := srv.Usage("dropped")
	if !ok || u.InflightBytes != 64 {
		t.Fatalf("staged usage = %+v (ok %v), want 64 in flight", u, ok)
	}

	_ = nc.Close() // connection dies mid-upload

	deadline := time.Now().Add(5 * time.Second)
	for {
		u, _ := srv.Usage("dropped")
		if u.InflightBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight bytes never released after disconnect: %+v", u)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Nothing was committed.
	u, _ = srv.Usage("dropped")
	if u.UsedBytes != 0 || u.Objects != 0 {
		t.Fatalf("abandoned staging became visible: %+v", u)
	}
	quiesce(t, srv, "dropped")
}

// within fails the test if fn does not return in time: a call that blocks
// on a lock a failed or closing path forgot to release never returns.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// lateListener delivers one connection as the daemon shuts down: its
// Close hands the connection to the pending Accept, and only then does
// Accept fail.
type lateListener struct {
	late   net.Conn
	conns  chan net.Conn
	closed chan struct{}
}

func (l *lateListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *lateListener) Close() error {
	l.conns <- l.late
	close(l.closed)
	return nil
}

func (l *lateListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestShutdownRefusesLateConnection closes the daemon while a connection
// is arriving. The daemon refuses it, and after Close every call still
// returns: a second Close, Health (reporting closed) and Usage.
func TestShutdownRefusesLateConnection(t *testing.T) {
	srv, err := storaged.New(storaged.Config{OpenStore: func(string) (storage.Store, error) { return storage.NewMem(), nil }})
	if err != nil {
		t.Fatal(err)
	}
	dialSide, late := net.Pipe()
	srv.Serve(&lateListener{late: late, conns: make(chan net.Conn), closed: make(chan struct{})})
	for i := range 2 {
		within(t, fmt.Sprintf("Close %d", i+1), func() {
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
		})
	}
	within(t, "the late connection's read", func() {
		if _, err := dialSide.Read(make([]byte, 1)); err == nil {
			t.Error("the late connection was served after Close")
		}
	})
	for i := range 2 {
		within(t, fmt.Sprintf("Health %d after Close", i+1), func() {
			if h := srv.Health(); h.OK {
				t.Errorf("Health after Close = %+v", h)
			}
		})
	}
	within(t, "Usage after Close", func() {
		if _, ok := srv.Usage("t"); ok {
			t.Error("Usage reports a tenant that never connected")
		}
	})
}

// TestCommitSurvivesSizeFault fails the backing store's Size while a
// commit measures what it overwrites. The commit fails and publishes
// nothing, and the tenant's next commit and delete go through.
func TestCommitSurvivesSizeFault(t *testing.T) {
	// CREATE measures the name first, so the commit's Size is the second.
	var sizes atomic.Int64
	before := runtime.NumGoroutine()
	daemon, err := storaged.Start("127.0.0.1:0", storaged.Config{
		OpenStore: func(string) (storage.Store, error) {
			return &storage.Interposer{Store: storage.NewMem(), Op: func(op, name string, call func() error) error {
				if op == "size" && name == "obj" && sizes.Add(1) == 2 {
					return storage.ErrInjectedFault
				}
				return call()
			}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unlike startServer, no Close at cleanup: a handler stuck on a leaked
	// commit lock would hold it forever. quiesce closes the daemon once
	// every call has returned.
	srv := &testServer{Server: daemon, goroutines: before}
	r := dialTenant(t, srv, "flaky", storage.RemoteOptions{})
	within(t, "the faulted commit", func() {
		if err := storage.WriteObject(r, "obj", []byte("lost")); err == nil {
			t.Error("commit succeeded through a failing Size")
		}
		if _, err := r.Size("obj"); !storage.IsNotExist(err) {
			t.Errorf("the failed commit published its object (size err %v)", err)
		}
	})
	within(t, "the next commit", func() {
		if err := storage.WriteObject(r, "obj", []byte("kept")); err != nil {
			t.Error(err)
		}
	})
	within(t, "a delete", func() {
		if err := r.Delete("obj"); err != nil {
			t.Error(err)
		}
	})
	quiesce(t, srv, "flaky")
}
