package storaged_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"lowdiff/internal/storage"
	"lowdiff/internal/storaged"
)

// patterned returns n bytes that differ between seeds and between offsets,
// so bytes from the wrong object or the wrong place in the right one never
// compare equal.
func patterned(seed, n int) []byte {
	b := make([]byte, n)
	x := uint32(seed)*2654435761 + 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

// rawConn is a hand-driven protocol connection: the client a test writes
// when storage.Remote would be too well behaved.
type rawConn struct {
	t  testing.TB
	nc net.Conn
}

func dialRaw(t testing.TB, srv *testServer, tenant string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	c := &rawConn{t: t, nc: nc}
	if op, _ := c.call(storage.OpHello, storage.AppendString([]byte{storage.ProtoVersion}, tenant)); op != storage.OpOK {
		t.Fatalf("HELLO: %s", storage.OpName(op))
	}
	return c
}

// call sends one frame and waits for its one reply.
func (c *rawConn) call(op byte, body []byte) (byte, []byte) {
	c.t.Helper()
	if err := storage.WriteFrame(c.nc, op, body); err != nil {
		c.t.Fatal(err)
	}
	reply, rbody, err := storage.ReadFrame(c.nc, storage.DefaultMaxFrame)
	if err != nil {
		c.t.Fatal(err)
	}
	return reply, rbody
}

// TestStopAndWaitClientInterop drives the protocol by hand, one DATA frame
// and one ack at a time, in frames of odd sizes, and downloads frame by
// frame: a daemon that stages payload buffers and streams pooled chunks is
// the same protocol to a client that knows nothing of either.
func TestStopAndWaitClientInterop(t *testing.T) {
	srv := startServer(t, storaged.Config{})
	c := dialRaw(t, srv, "oldclient")
	want := patterned(7, 3<<20+17)

	if op, _ := c.call(storage.OpCreate, storage.AppendString(nil, "obj")); op != storage.OpOK {
		t.Fatalf("CREATE: %s", storage.OpName(op))
	}
	sizes := []int{1 << 20, 5, 1<<20 - 1, 700_000, 0, 1}
	rest := want
	for i := 0; len(rest) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(rest))
		if op, _ := c.call(storage.OpData, rest[:n]); op != storage.OpOK {
			t.Fatalf("DATA frame %d: %s", i, storage.OpName(op))
		}
		rest = rest[n:]
	}
	if u, _ := srv.Usage("oldclient"); u.InflightBytes != int64(len(want)) {
		t.Fatalf("staged %d bytes, want %d", u.InflightBytes, len(want))
	}
	if op, _ := c.call(storage.OpCommit, nil); op != storage.OpOK {
		t.Fatalf("COMMIT: %s", storage.OpName(op))
	}

	if err := storage.WriteFrame(c.nc, storage.OpGet, storage.AppendString(nil, "obj")); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		op, body, err := storage.ReadFrame(c.nc, storage.DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if op == storage.OpOK {
			break
		}
		if op != storage.OpChunk {
			t.Fatalf("GET reply: %s", storage.OpName(op))
		}
		got = append(got, body...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("downloaded %d bytes, want the %d uploaded", len(got), len(want))
	}
	quiesce(t, srv, "oldclient")
}

// TestRejectionWithFramesInFlight is a client that does not wait for acks:
// it sends the DATA frame that breaks the quota and three more behind it
// before reading anything. The daemon drops the staging at the first and
// must still answer every frame, one reply each, so the client can count
// its way back into step; afterwards nothing is in flight, nothing is
// listed, and the same connection carries the next upload. storage.Remote
// waits for each ack, so only a raw client gets here; the daemon's side of
// the protocol has to hold for any client.
func TestRejectionWithFramesInFlight(t *testing.T) {
	srv := startServer(t, storaged.Config{
		Tenants: map[string]storaged.TenantConfig{"eager": {QuotaBytes: 100}},
	})
	c := dialRaw(t, srv, "eager")
	if op, _ := c.call(storage.OpCreate, storage.AppendString(nil, "big")); op != storage.OpOK {
		t.Fatalf("CREATE: %s", storage.OpName(op))
	}
	for i, n := range []int{60, 60, 10, 10, 10} { // the second is over quota
		if err := storage.WriteFrame(c.nc, storage.OpData, make([]byte, n)); err != nil {
			t.Fatalf("DATA frame %d: %v", i, err)
		}
	}
	for i, want := range []byte{storage.OpOK, storage.OpErr, storage.OpErr, storage.OpErr, storage.OpErr} {
		op, body, err := storage.ReadFrame(c.nc, storage.DefaultMaxFrame)
		if err != nil || op != want {
			t.Fatalf("reply %d: %s (err %v), want %s", i, storage.OpName(op), err, storage.OpName(want))
		}
		if i == 1 && body[0] != storage.CodeQuota {
			t.Fatalf("rejection carries code %d, want CodeQuota", body[0])
		}
	}
	if u, _ := srv.Usage("eager"); u.InflightBytes != 0 || u.Objects != 0 {
		t.Fatalf("after the rejection: %+v, want nothing in flight and nothing stored", u)
	}
	if op, body := c.call(storage.OpList, storage.AppendString(nil, "")); op != storage.OpNames {
		t.Fatalf("LIST: %s", storage.OpName(op))
	} else if names, err := storage.DecodeNames(body); err != nil || len(names) != 0 {
		t.Fatalf("LIST after the rejection: %v (err %v), want nothing", names, err)
	}
	// The connection is back in step: a whole upload goes through on it.
	if op, _ := c.call(storage.OpCreate, storage.AppendString(nil, "small")); op != storage.OpOK {
		t.Fatalf("CREATE after the rejection: %s", storage.OpName(op))
	}
	if op, _ := c.call(storage.OpData, make([]byte, 40)); op != storage.OpOK {
		t.Fatalf("DATA after the rejection: %s", storage.OpName(op))
	}
	if op, _ := c.call(storage.OpCommit, nil); op != storage.OpOK {
		t.Fatalf("COMMIT after the rejection: %s", storage.OpName(op))
	}
	quiesce(t, srv, "eager")
}

// TestFrameBufferOwnership has several connections upload distinct
// multi-MiB objects at once, each interleaving aborted uploads, LISTs and
// GETs of what it already committed, over a tiered store small enough that
// part of the set spills. Frame buffers cycle through the pool the whole
// time; if one were returned twice, or stayed aliased by a committed object
// after its return, two owners would write it and some object would read
// back wrong (or the race detector would see the two writers).
func TestFrameBufferOwnership(t *testing.T) {
	const workers, perWorker, size = 4, 3, 2<<20 + 12345
	var tiered *storage.Tiered
	srv := startServer(t, storaged.Config{
		OpenStore: func(string) (storage.Store, error) {
			tr, err := storage.NewTiered(storage.NewMem(), 5*size, 3*size)
			tiered = tr
			return tr, err
		},
	})
	name := func(w, j int) string { return fmt.Sprintf("obj-%d-%d", w, j) }
	seed := func(w, j int) int { return 1 + w*perWorker + j }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		r := dialTenant(t, srv, "shared", storage.RemoteOptions{})
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				data := patterned(seed(w, j), size)
				// An upload abandoned half way: its staged buffers go back
				// to the pool while other connections are filling theirs.
				aw, err := r.Create(name(w, j))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := aw.Write(data[:size/2]); err != nil {
					t.Error(err)
					return
				}
				if err := storage.AbortWriter(aw); err != nil {
					t.Error(err)
					return
				}
				// The real one, in pieces that straddle chunk boundaries.
				cw, err := r.Create(name(w, j))
				if err != nil {
					t.Error(err)
					return
				}
				for off := 0; off < size; off += 777_777 {
					if _, err := cw.Write(data[off:min(off+777_777, size)]); err != nil {
						t.Error(err)
						return
					}
				}
				if err := cw.Close(); err != nil {
					t.Error(err)
					return
				}
				if _, err := r.List("obj-"); err != nil {
					t.Error(err)
					return
				}
				for k := 0; k <= j; k++ {
					got, err := storage.ReadObject(r, name(w, k))
					if err != nil || !bytes.Equal(got, patterned(seed(w, k), size)) {
						t.Errorf("%s read back wrong mid-run (err %v)", name(w, k), err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if tiered.Evictions() == 0 || tiered.HotBytes() == 0 {
		t.Fatalf("objects are not spread over both tiers: %d evictions, %d hot bytes",
			tiered.Evictions(), tiered.HotBytes())
	}
	r := dialTenant(t, srv, "shared", storage.RemoteOptions{})
	for w := 0; w < workers; w++ {
		for j := 0; j < perWorker; j++ {
			want := patterned(seed(w, j), size)
			if got, err := storage.ReadObject(r, name(w, j)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s over the wire: wrong bytes (err %v)", name(w, j), err)
			}
			if got, err := storage.ReadObject(tiered, name(w, j)); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%s in the store: wrong bytes (err %v)", name(w, j), err)
			}
		}
	}
	if u, _ := srv.Usage("shared"); u.Objects != workers*perWorker || u.UsedBytes != workers*perWorker*size {
		t.Errorf("usage %+v, want %d objects of %d bytes", u, workers*perWorker, size)
	}
	quiesce(t, srv, "shared")
}

// fuzzFrames encodes a frame sequence the way FuzzServerFrames reads it
// back: opcode, big-endian uint16 body length, body.
func fuzzFrames(frames ...[]byte) []byte {
	var out []byte
	for _, f := range frames {
		out = append(out, f[0])
		out = binary.BigEndian.AppendUint16(out, uint16(len(f)-1))
		out = append(out, f[1:]...)
	}
	return out
}

// FuzzServerFrames throws arbitrary request sequences at one connection
// after a valid HELLO. The input is read as (opcode, uint16 length, body)
// records sent as well-formed frames; opcode 0xff sends the rest of the
// input raw instead, which ends the connection with broken framing. However
// the sequence goes, the daemon must not panic, must release every staged
// byte once the connection is gone, and must end up accounting for exactly
// what its store lists.
func FuzzServerFrames(f *testing.F) {
	named := func(op byte, name string) []byte { return storage.AppendString([]byte{op}, name) }
	data := append([]byte{storage.OpData}, patterned(3, 300)...)
	f.Add(fuzzFrames(named(storage.OpCreate, "a"), data, data, []byte{storage.OpCommit},
		named(storage.OpGet, "a"), named(storage.OpList, ""), named(storage.OpSize, "a"),
		[]byte{storage.OpStat}, named(storage.OpDelete, "a")))
	f.Add(fuzzFrames(named(storage.OpCreate, "a"), data, []byte{storage.OpAbort}, data, []byte{storage.OpCommit}))
	f.Add(fuzzFrames(named(storage.OpCreate, "a"), data, named(storage.OpCreate, "b"), named(storage.OpGet, "a"), data))
	f.Add(fuzzFrames(named(storage.OpCreate, ""), data, []byte{storage.OpCommit}, []byte{storage.OpHello}))
	f.Add(append(fuzzFrames(named(storage.OpCreate, "a"), data), 0xff, 0, 0, 0, 9, 3, 1, 2))
	f.Add([]byte{storage.OpData, 0xff, 0xff, 1, 2, 3})

	f.Fuzz(func(t *testing.T, in []byte) {
		mem := storage.NewMem()
		srv := startServer(t, storaged.Config{
			OpenStore: func(string) (storage.Store, error) { return mem, nil },
			Tenants:   map[string]storaged.TenantConfig{"fuzz": {QuotaBytes: 1000, MaxInflightBytes: 700}},
		})
		// The connection is a pipe, not a socket: a fuzz worker runs
		// thousands of these a second. Replies are drained concurrently and
		// dropped — the sequence decides how many there are, and a pipe
		// holds none of them for a client that is busy sending.
		client, server := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.ServeConn(server)
		}()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, client) // ends when either end closes
		}()
		hello := storage.AppendString([]byte{storage.ProtoVersion}, "fuzz")
		if err := storage.WriteFrame(client, storage.OpHello, hello); err != nil {
			t.Fatal(err)
		}
		for len(in) > 0 {
			if in[0] == 0xff {
				_, _ = client.Write(in[1:]) // the daemon may already have hung up
				break
			}
			if len(in) < 3 {
				break
			}
			n := min(int(binary.BigEndian.Uint16(in[1:3])), len(in)-3)
			if err := storage.WriteFrame(client, in[0], in[3:3+n]); err != nil {
				break // only after raw bytes made the daemon hang up
			}
			in = in[3+n:]
		}
		// A pipe write returns once the daemon has read it, so everything
		// sent has reached the handler; hanging up ends its loop.
		_ = client.Close()
		<-served
		<-drained

		quiesce(t, srv, "fuzz")
		u, _ := srv.Usage("fuzz")
		names, err := mem.List("")
		if err != nil {
			t.Fatal(err)
		}
		if u.UsedBytes != mem.TotalBytes() || u.Objects != int64(len(names)) {
			t.Fatalf("daemon accounts %d bytes in %d objects, store holds %d in %d",
				u.UsedBytes, u.Objects, mem.TotalBytes(), len(names))
		}
	})
}
