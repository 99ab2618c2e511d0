package storage_test

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// scripted is one hand-written GET reply: the bytes the server sends,
// exactly as given, and whether it hangs up after them.
type scripted struct {
	wire   []byte
	hangUp bool
}

// getServer is a hand-driven daemon behind RemoteOptions.Dial. Each
// connection answers HELLO with OK and every later request with the next
// scripted reply. It counts dials, so a test can tell a connection that
// went back to the pool from one that was discarded.
type getServer struct {
	mu      sync.Mutex
	replies []scripted
	dials   atomic.Int64
	wg      sync.WaitGroup
}

func (s *getServer) dial(string) (net.Conn, error) {
	s.dials.Add(1)
	client, server := net.Pipe()
	s.wg.Add(1)
	go s.serve(server)
	return client, nil
}

func (s *getServer) serve(nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()
	if _, _, err := storage.ReadFrame(nc, storage.DefaultMaxFrame); err != nil {
		return
	}
	if err := storage.WriteFrame(nc, storage.OpOK, nil); err != nil {
		return
	}
	for {
		if _, _, err := storage.ReadFrame(nc, storage.DefaultMaxFrame); err != nil {
			return // the client hung up
		}
		s.mu.Lock()
		if len(s.replies) == 0 {
			s.mu.Unlock()
			return
		}
		reply := s.replies[0]
		s.replies = s.replies[1:]
		s.mu.Unlock()
		if _, err := nc.Write(reply.wire); err != nil || reply.hangUp {
			return // a client that stopped reading closed its end
		}
	}
}

// startGetServer dials a Remote to a getServer that will send replies in
// order. Cleanup closes the Remote and waits for every connection.
func startGetServer(t testing.TB, replies ...scripted) (*storage.Remote, *getServer) {
	t.Helper()
	s := &getServer{replies: replies}
	r, err := storage.DialRemote("pipe", "t", storage.RemoteOptions{Dial: s.dial})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = r.Close() // closes pooled connections, ending their server loops
		s.wg.Wait()
	})
	return r, s
}

func frame(op byte, body []byte) []byte {
	var b bytes.Buffer
	_ = storage.WriteFrame(&b, op, body) // a bytes.Buffer write cannot fail
	return b.Bytes()
}

// chunked is obj as the daemon sends it: whole CHUNK frames, then OK.
func chunked(obj []byte) []byte {
	var out []byte
	for off := 0; off < len(obj); off += storage.ChunkSize {
		out = append(out, frame(storage.OpChunk, obj[off:min(off+storage.ChunkSize, len(obj))])...)
	}
	return append(out, frame(storage.OpOK, nil)...)
}

func errFrame(code byte, msg string) []byte {
	return frame(storage.OpErr, storage.AppendString([]byte{code}, msg))
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>11)
	}
	return b
}

// readPattern reads rc to its end or first error, in reads whose sizes
// cycle through sizes.
func readPattern(rc io.Reader, sizes []int) ([]byte, error) {
	var got []byte
	buf := make([]byte, slices.Max(sizes))
	for i := 0; ; i++ {
		n, err := rc.Read(buf[:sizes[i%len(sizes)]])
		got = append(got, buf[:n]...)
		if err != nil {
			return got, err
		}
	}
}

// TestRemoteGetStream drives Remote.Open against a hand-written GET reply
// for every size class of object and of read: exactly k chunks and a chunk
// ± 1, reads of 1 B, 7 B and a chunk − 1 in turn, and reads larger than
// the object. Each stream must serve the object byte for byte, end at
// io.EOF, and leave its connection in the pool.
func TestRemoteGetStream(t *testing.T) {
	const c = storage.ChunkSize
	for _, size := range []int{0, 1, c - 1, c, c + 1, 2 * c} {
		for _, sizes := range [][]int{{1, 7, c - 1}, {c - 1}, {size + 1}} {
			obj := pattern(size)
			r, s := startGetServer(t, scripted{wire: chunked(obj)}, scripted{wire: chunked(nil)})
			rc, err := r.Open("obj")
			if err != nil {
				t.Fatalf("size %d: Open: %v", size, err)
			}
			got, err := readPattern(rc, sizes)
			if err != io.EOF || !bytes.Equal(got, obj) {
				t.Fatalf("size %d, reads %v: %d bytes, err %v; want the %d-byte object and io.EOF",
					size, sizes, len(got), err, size)
			}
			if err := rc.Close(); err != nil {
				t.Fatalf("size %d: Close after EOF: %v", size, err)
			}
			if _, err := storage.ReadObject(r, "next"); err != nil {
				t.Fatal(err)
			}
			if n := s.dials.Load(); n != 1 {
				t.Fatalf("size %d, reads %v: %d dials, want the one connection reused", size, sizes, n)
			}
		}
	}
}

// TestRemoteGetStreamFailures: every way a GET reply can go wrong is an
// error before io.EOF — at Open when the reply opens with it — and the
// connection is reused only when the reply was well formed to its end.
func TestRemoteGetStreamFailures(t *testing.T) {
	obj := pattern(storage.ChunkSize + 300)
	good := chunked(obj)
	first := len(frame(storage.OpChunk, obj[:storage.ChunkSize]))
	flipped := bytes.Clone(good)
	flipped[first+9] ^= 0x10 // a bit in the second CHUNK's body
	badTrailer := bytes.Clone(good)
	badTrailer[first-1] ^= 0x01 // the first CHUNK's CRC
	for _, tc := range []struct {
		name      string
		reply     scripted
		readFirst int  // bytes read before Close; -1 reads to the end
		openErr   bool // the error surfaces at Open
		wantErr   func(error) bool
		reused    bool
	}{
		{name: "not-exist", reply: scripted{wire: errFrame(storage.CodeNotExist, "obj")},
			openErr: true, wantErr: storage.IsNotExist, reused: true},
		{name: "quota", reply: scripted{wire: errFrame(storage.CodeQuota, "full")},
			openErr: true, wantErr: func(err error) bool { return errors.Is(err, storage.ErrQuotaExceeded) }, reused: true},
		{name: "error mid-stream", reply: scripted{wire: append(bytes.Clone(good[:first]), errFrame(storage.CodeInternal, "disk")...)},
			readFirst: -1},
		{name: "cut mid-frame", reply: scripted{wire: good[:first+100], hangUp: true},
			readFirst: -1, wantErr: func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{name: "cut between frames", reply: scripted{wire: good[:first], hangUp: true},
			readFirst: -1, wantErr: func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{name: "flipped body bit", reply: scripted{wire: flipped}, readFirst: -1},
		{name: "bad trailer", reply: scripted{wire: badTrailer}, readFirst: -1},
		{name: "unexpected opcode", reply: scripted{wire: append(bytes.Clone(good[:first]), frame(storage.OpNames, nil)...)},
			readFirst: -1},
		{name: "OK with a body", reply: scripted{wire: append(bytes.Clone(good[:len(good)-9]), frame(storage.OpOK, []byte{1})...)},
			readFirst: -1},
		{name: "close before EOF", reply: scripted{wire: good}, readFirst: 10, reused: true},
		{name: "close before a bad frame", reply: scripted{wire: flipped}, readFirst: 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, s := startGetServer(t, tc.reply, scripted{wire: chunked(nil)})
			rc, err := r.Open("obj")
			if tc.openErr {
				if rc != nil || err == nil || !tc.wantErr(err) {
					t.Fatalf("Open: %v, want the reply's error", err)
				}
			} else {
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				if tc.readFirst >= 0 {
					if _, err := io.ReadFull(rc, make([]byte, tc.readFirst)); err != nil {
						t.Fatal(err)
					}
				} else {
					got, rerr := io.ReadAll(rc)
					if rerr == nil || (tc.wantErr != nil && !tc.wantErr(rerr)) {
						t.Fatalf("read %d bytes to err %v, want an error before EOF", len(got), rerr)
					}
				}
				cerr := rc.Close()
				if tc.reused && cerr != nil {
					t.Fatalf("Close: %v", cerr)
				}
				if !tc.reused && cerr == nil {
					t.Fatal("Close of a failed reply returned nil")
				}
				if n, err := rc.Read(make([]byte, 1)); n != 0 || err == nil {
					t.Fatalf("Read after Close: %d bytes, err %v", n, err)
				}
			}
			if _, err := storage.ReadObject(r, "next"); err != nil {
				t.Fatal(err)
			}
			want := int64(2)
			if tc.reused {
				want = 1
			}
			if n := s.dials.Load(); n != want {
				t.Fatalf("%d dials, want %d (reused %v)", n, want, tc.reused)
			}
		})
	}
}

// TestLoadFullSurfacesCloseError: a checkpoint decoder stops at its
// record's end, so through a streaming store the last frame's CRC is
// checked by Close. LoadFull must report it even though every byte of
// the record decoded.
func TestLoadFullSurfacesCloseError(t *testing.T) {
	params := make(tensor.Vector, 300_000)
	for i := range params {
		params[i] = float32(i) / 7
	}
	var rec bytes.Buffer
	full := &checkpoint.Full{Iter: 12, Params: params, Opt: optim.State{Name: "sgd"}}
	if err := full.Encode(&rec); err != nil {
		t.Fatal(err)
	}
	// The record ends inside the last CHUNK frame (trailing bytes after it
	// are never read by the decoder) or exactly at its end.
	for _, pad := range []int{0, 100} {
		obj := append(bytes.Clone(rec.Bytes()), make([]byte, pad)...)
		wire := chunked(obj)
		bad := bytes.Clone(wire)
		bad[len(bad)-9-1] ^= 0x01 // the last CHUNK's CRC trailer, before OK
		r, _ := startGetServer(t, scripted{wire: wire}, scripted{wire: bad})
		got, err := checkpoint.LoadFull(r, "full")
		if err != nil || got.Iter != 12 || len(got.Params) != len(params) {
			t.Fatalf("pad %d, intact reply: %v", pad, err)
		}
		if _, err := checkpoint.LoadFull(r, "full"); err == nil {
			t.Fatalf("pad %d: LoadFull accepted a reply whose last frame fails its CRC", pad)
		}
	}
}

// parseGetReply is the GET reply grammar, CHUNK*·OK with an empty OK and
// every CRC valid, read with ReadFrame: the concatenated bodies and
// whether the input starts with such a reply.
func parseGetReply(wire []byte) ([]byte, bool) {
	r := bytes.NewReader(wire)
	var obj []byte
	for {
		op, body, err := storage.ReadFrame(r, storage.DefaultMaxFrame)
		if err != nil {
			return nil, false
		}
		switch op {
		case storage.OpChunk:
			obj = append(obj, body...)
		case storage.OpOK:
			return obj, len(body) == 0
		default:
			return nil, false
		}
	}
}

// FuzzRemoteGetReply answers a GET with arbitrary bytes and hangs up. The
// reader must not panic, and reaches io.EOF only when the bytes began with
// a well-formed CHUNK*·OK reply, having served exactly its bodies.
func FuzzRemoteGetReply(f *testing.F) {
	obj := pattern(3000)
	f.Add(chunked(obj), uint16(7))
	f.Add(chunked(nil), uint16(0))
	f.Add(append(frame(storage.OpChunk, obj[:10]), frame(storage.OpChunk, nil)...), uint16(1))
	f.Add(errFrame(storage.CodeNotExist, "x"), uint16(3))
	f.Add(append(frame(storage.OpChunk, obj[:10]), errFrame(storage.CodeInternal, "disk")...), uint16(5))
	f.Add(chunked(obj)[:100], uint16(64))
	f.Fuzz(func(t *testing.T, wire []byte, step uint16) {
		want, wellFormed := parseGetReply(wire)
		r, _ := startGetServer(t, scripted{wire: wire, hangUp: true})
		rc, err := r.Open("obj")
		if err != nil {
			if wellFormed {
				t.Fatalf("Open failed on a well-formed reply: %v", err)
			}
			return
		}
		got, err := readPattern(rc, []int{1 + int(step)%5000, 1})
		cerr := rc.Close()
		if err == io.EOF {
			if !wellFormed || !bytes.Equal(got, want) {
				t.Fatalf("io.EOF after %d bytes of a reply that is not CHUNK*·OK with these bodies (well-formed %v)",
					len(got), wellFormed)
			}
			if cerr != nil {
				t.Fatalf("Close after EOF: %v", cerr)
			}
			return
		}
		if wellFormed {
			t.Fatalf("well-formed reply failed after %d bytes: %v", len(got), err)
		}
		if cerr == nil {
			t.Fatal("Close of a failed reply returned nil")
		}
	})
}
