package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"lowdiff/internal/tensor"
)

// ErrQuotaExceeded reports a write the daemon rejected because it would
// push the tenant past its byte quota. Quota errors are not retryable:
// backing off does not create space.
var ErrQuotaExceeded = errors.New("storage: tenant quota exceeded")

// ErrBackpressure reports that the daemon's admission control kept
// answering RETRY for longer than the client's backoff policy was willing
// to wait. It is transient by construction — the engines' fault-tolerance
// retry ladder treats it like any other transient persist failure.
var ErrBackpressure = errors.New("storage: server backpressure, retries exhausted")

// RemoteOptions tunes the Remote client store. The zero value is usable.
type RemoteOptions struct {
	// MaxRetries bounds how many times an admission-controlled CREATE is
	// retried after a RETRY frame before giving up with ErrBackpressure
	// (default 8; negative disables retrying).
	MaxRetries int
	// Backoff is the base backoff before re-attempting after RETRY:
	// attempt k waits max(server hint, Backoff·2^(k-1)), jittered
	// (default 1ms).
	Backoff time.Duration
	// MaxBackoff caps one backoff sleep (default 200ms).
	MaxBackoff time.Duration
	// Jitter shrinks each backoff multiplicatively by up to this fraction,
	// drawn from a SplitMix64 stream seeded by Seed, so concurrent tenants
	// don't retry in lockstep (default 0.2; clamped to [0,1]).
	Jitter float64
	// Seed seeds the jitter stream (deterministic retry schedules in tests).
	Seed uint64
	// Sleep is the backoff seam (nil uses time.Sleep).
	Sleep func(time.Duration)
	// ChunkSize is the streamed upload chunk size (default 1MiB).
	ChunkSize int
	// Dial is the connection seam (nil uses net.Dial "tcp").
	Dial func(addr string) (net.Conn, error)
}

func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.MaxRetries == 0 {
		o.MaxRetries = 8
	}
	if o.Backoff == 0 {
		o.Backoff = time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 200 * time.Millisecond
	}
	if o.Jitter < 0 {
		o.Jitter = 0
	}
	if o.Jitter > 1 {
		o.Jitter = 1
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = ChunkSize
	}
	if o.ChunkSize > DefaultMaxFrame {
		o.ChunkSize = DefaultMaxFrame
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return o
}

// Remote is a Store backed by a lowdiffd checkpoint storage daemon over
// the length-prefixed binary protocol (see remoteproto.go). One Remote
// speaks for one tenant namespace. It is safe for concurrent use: each
// in-flight operation owns a pooled connection, and connections are
// discarded on any protocol or transport error so a poisoned stream never
// serves a second request. A reader from Open holds its connection until
// it is closed.
type Remote struct {
	addr   string
	tenant string
	opts   RemoteOptions

	mu     sync.Mutex
	free   []*remoteConn
	rng    *tensor.RNG // jitter stream, guarded by mu
	closed bool
}

// DialRemote connects to a daemon at addr and binds the client to the
// given tenant namespace, validating the connection with a HELLO exchange.
func DialRemote(addr, tenant string, opts RemoteOptions) (*Remote, error) {
	if tenant == "" {
		return nil, fmt.Errorf("storage: empty tenant name")
	}
	r := &Remote{addr: addr, tenant: tenant, opts: opts.withDefaults(), rng: tensor.NewRNG(opts.Seed)}
	c, err := r.dial()
	if err != nil {
		return nil, err
	}
	r.put(c)
	return r, nil
}

// parseURL splits a "tcp://host:port/tenant" store URL.
func parseURL(raw string) (addr, tenant string, err error) {
	rest, ok := strings.CutPrefix(raw, "tcp://")
	if !ok {
		return "", "", fmt.Errorf("storage: store URL %q must start with tcp://", raw)
	}
	addr, tenant, ok = strings.Cut(rest, "/")
	if !ok || addr == "" || tenant == "" || strings.Contains(tenant, "/") {
		return "", "", fmt.Errorf("storage: store URL %q must be tcp://host:port/tenant", raw)
	}
	return addr, tenant, nil
}

// DialURL dials a "tcp://host:port/tenant" store URL.
func DialURL(raw string, opts RemoteOptions) (*Remote, error) {
	addr, tenant, err := parseURL(raw)
	if err != nil {
		return nil, err
	}
	return DialRemote(addr, tenant, opts)
}

// Close releases the pooled connections. In-flight operations on checked-
// out connections finish; their connections are then discarded.
func (r *Remote) Close() error {
	r.mu.Lock()
	conns := r.free
	r.free = nil
	r.closed = true
	r.mu.Unlock()
	var first error
	for _, c := range conns {
		if err := c.nc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// remoteConn is one authenticated protocol connection.
type remoteConn struct {
	nc net.Conn
}

func (r *Remote) dial() (*remoteConn, error) {
	nc, err := r.opts.Dial(r.addr)
	if err != nil {
		return nil, fmt.Errorf("storage: dial %s: %w", r.addr, err)
	}
	c := &remoteConn{nc: nc}
	body := AppendString([]byte{ProtoVersion}, r.tenant)
	op, resp, err := c.call(OpHello, body)
	if err != nil {
		_ = nc.Close() // handshake failed; that error is primary
		return nil, err
	}
	if op != OpOK {
		_ = nc.Close() // server refused the tenant; its error is primary
		return nil, remoteError(op, resp)
	}
	return c, nil
}

// get checks out a pooled connection, dialing a fresh one when the pool is
// empty.
func (r *Remote) get() (*remoteConn, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("storage: remote store is closed")
	}
	var c *remoteConn
	if n := len(r.free); n > 0 {
		c = r.free[n-1]
		r.free = r.free[:n-1]
	}
	r.mu.Unlock()
	if c != nil {
		return c, nil
	}
	return r.dial()
}

// put returns a healthy connection to the pool.
func (r *Remote) put(c *remoteConn) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_ = c.nc.Close() // pool is gone; nothing to report the error to
		return
	}
	r.free = append(r.free, c)
	r.mu.Unlock()
}

// discard drops a connection whose stream can no longer be trusted.
func (r *Remote) discard(c *remoteConn) {
	_ = c.nc.Close() // poisoned stream; the originating error is primary
}

// call sends one request frame and reads one response frame.
func (c *remoteConn) call(op byte, body []byte) (byte, []byte, error) {
	if err := WriteFrame(c.nc, op, body); err != nil {
		return 0, nil, err
	}
	return ReadFrame(c.nc, DefaultMaxFrame)
}

// remoteError maps an OpErr frame to this package's error vocabulary, so
// IsNotExist and quota checks work identically against local and remote
// stores.
func remoteError(op byte, body []byte) error {
	if op != OpErr {
		return fmt.Errorf("storage: unexpected %s reply", OpName(op))
	}
	r := &WireReader{b: body}
	code := r.Byte()
	msg := r.Str()
	if err := r.Done(); err != nil {
		return err
	}
	switch code {
	case CodeNotExist:
		return &notExistError{msg}
	case CodeQuota:
		return fmt.Errorf("%w: %s", ErrQuotaExceeded, msg)
	default:
		return fmt.Errorf("storage: server error: %s", msg)
	}
}

// backoffFor computes the k-th retry sleep: exponential from the base,
// floored by the server's hint, capped, jittered downward.
func (r *Remote) backoffFor(attempt int, hint time.Duration) time.Duration {
	d := r.opts.Backoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= r.opts.MaxBackoff {
			break
		}
	}
	if d < hint {
		d = hint
	}
	if d > r.opts.MaxBackoff {
		d = r.opts.MaxBackoff
	}
	if r.opts.Jitter > 0 {
		r.mu.Lock()
		u := r.rng.Float64()
		r.mu.Unlock()
		d = time.Duration(float64(d) * (1 - r.opts.Jitter*u))
	}
	return d
}

// Create implements Store. RETRY answers from the daemon's admission
// control are absorbed here with jittered exponential backoff; if the
// server is still shedding load after MaxRetries attempts, Create fails
// with ErrBackpressure, which the engines' retry ladder treats as
// transient.
func (r *Remote) Create(name string) (io.WriteCloser, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: empty object name")
	}
	for attempt := 0; ; attempt++ {
		c, err := r.get()
		if err != nil {
			return nil, err
		}
		op, body, err := c.call(OpCreate, AppendString(nil, name))
		if err != nil {
			r.discard(c)
			return nil, err
		}
		switch op {
		case OpOK:
			w := &remoteWriter{r: r, c: c}
			w.frames = Framer{send: w.send, chunk: r.opts.ChunkSize}
			return w, nil
		case OpRetry:
			r.put(c) // the connection is healthy; the server is just busy
			wr := &WireReader{b: body}
			hint := time.Duration(wr.U64()) * time.Millisecond
			if err := wr.Done(); err != nil {
				return nil, err
			}
			if attempt >= r.opts.MaxRetries {
				return nil, fmt.Errorf("%w (after %d attempts)", ErrBackpressure, attempt+1)
			}
			if d := r.backoffFor(attempt+1, hint); d > 0 {
				r.opts.Sleep(d)
			}
		default:
			r.put(c)
			return nil, remoteError(op, body)
		}
	}
}

// remoteWriter streams a staged object upload. It owns its connection
// until Close or Abort and latches errors the same way the local writers
// do: after any failed chunk, Close aborts the staging instead of
// committing a torn object. Server-side rejections (quota, backing-store
// errors) arrive as well-formed frames on a healthy stream — the server
// has already discarded the staging — while transport and framing failures
// poison the connection. Its Framer cuts the stream into DATA frames.
type remoteWriter struct {
	r        *Remote
	c        *remoteConn
	frames   Framer
	closed   bool
	err      error
	rejected bool // server refused the staging; nothing left to abort
}

// send emits one DATA frame and waits for its ack.
func (w *remoteWriter) send(body []byte) error {
	op, reply, err := w.c.call(OpData, body)
	if err != nil {
		w.err = err
		w.release(false)
		return err
	}
	if op != OpOK {
		// The server rejected the chunk (quota, backing failure) and
		// dropped the staging itself; the stream stays usable.
		w.err = remoteError(op, reply)
		w.rejected = true
		w.release(true)
		return w.err
	}
	return nil
}

func (w *remoteWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("storage: write after close")
	}
	if w.err != nil {
		return 0, w.err
	}
	return w.frames.Write(p)
}

// release hands the connection back to the pool (healthy) or discards it
// (poisoned stream), and severs the writer from it.
func (w *remoteWriter) release(healthy bool) {
	w.frames.Release()
	if w.c == nil {
		return
	}
	if healthy {
		w.r.put(w.c)
	} else {
		w.r.discard(w.c)
	}
	w.c = nil
}

func (w *remoteWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.err != nil {
		// A chunk failed earlier: committing would publish a torn object.
		// Discard any staging the server still holds; the original write
		// error stays primary.
		_ = w.abortStaging()
		return w.err
	}
	if err := w.frames.Flush(); err != nil {
		return err
	}
	op, body, err := w.c.call(OpCommit, nil)
	if err != nil {
		w.release(false)
		return err
	}
	w.release(true)
	if op != OpOK {
		return remoteError(op, body)
	}
	return nil
}

// Abort implements the storage abort contract: the staged upload is
// discarded server-side and nothing becomes visible.
func (w *remoteWriter) Abort() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.abortStaging()
}

func (w *remoteWriter) abortStaging() error {
	if w.c == nil || w.rejected {
		w.release(true)
		return nil
	}
	op, body, err := w.c.call(OpAbort, nil)
	if err != nil {
		w.release(false)
		return err
	}
	w.release(true)
	if op != OpOK {
		return remoteError(op, body)
	}
	return nil
}

// Open implements Store. It reads the first frame of the reply, so a
// missing object, a refusal or a broken connection fails here; the object
// itself streams. Each Read takes CHUNK payload from the connection
// straight into the caller's buffer and checks each frame's CRC at that
// frame's end, and io.EOF comes only once the server's OK has followed
// frames that all checked out. The reader holds its connection, and the
// server's handler, until Close. Close before EOF drains the reply to its
// OK, checking every CRC on the way — a checkpoint decoder stops at its
// record's end, so draining is what checks the last frame — and returns
// the first error the stream had; only a fully verified connection goes
// back to the pool.
func (r *Remote) Open(name string) (io.ReadCloser, error) {
	c, err := r.get()
	if err != nil {
		return nil, err
	}
	if err := WriteFrame(c.nc, OpGet, AppendString(nil, name)); err != nil {
		r.discard(c)
		return nil, err
	}
	rr := &remoteReader{r: r, c: c, first: true}
	rr.next()
	if rr.err != nil && rr.err != io.EOF {
		return nil, rr.err
	}
	return rr, nil
}

// remoteReader is one streaming GET reply: CHUNK*, then OK or an error.
type remoteReader struct {
	r      *Remote
	c      *remoteConn // nil once the reply has ended
	first  bool        // no frame of the reply read yet
	left   int         // body bytes of the current CHUNK frame not yet read
	crc    uint32      // CRC of the current CHUNK frame's bytes read so far
	err    error       // io.EOF after a verified OK, or the reply's failure
	closed bool
}

func (rr *remoteReader) Read(p []byte) (int, error) {
	if rr.closed {
		return 0, fmt.Errorf("storage: read after close")
	}
	if rr.left == 0 {
		rr.next()
	}
	if rr.err != nil {
		return 0, rr.err
	}
	if len(p) > rr.left {
		p = p[:rr.left]
	}
	n, err := rr.c.nc.Read(p)
	rr.crc = crc32.Update(rr.crc, crc32.IEEETable, p[:n])
	rr.left -= n
	if err != nil {
		rr.fail(err)
	} else if rr.left == 0 {
		rr.endChunk()
	}
	return n, rr.err
}

// next reads frames up to the start of the next non-empty CHUNK body, or
// to the end of the reply: OK ends it at io.EOF and hands the connection
// back, anything else ends it with an error. Only an error reply that
// opens the reply leaves the connection usable; after data, or on an
// opcode out of place, the stream is out of step and the connection goes.
func (rr *remoteReader) next() {
	for rr.err == nil && rr.left == 0 {
		var hdr [5]byte
		if _, err := io.ReadFull(rr.c.nc, hdr[:]); err != nil {
			rr.fail(err)
			return
		}
		n, err := frameLen([4]byte(hdr[:4]), DefaultMaxFrame)
		if err != nil {
			rr.fail(err)
			return
		}
		op, first := hdr[4], rr.first
		rr.first = false
		if op == OpChunk {
			rr.left, rr.crc = n-1, crc32.ChecksumIEEE(hdr[4:])
			if rr.left == 0 {
				rr.endChunk()
			}
			continue
		}
		body := make([]byte, n-1)
		_, err = io.ReadFull(rr.c.nc, body)
		if err == nil {
			err = readTrailer(rr.c.nc, op, crc32.Update(crc32.ChecksumIEEE(hdr[4:]), crc32.IEEETable, body))
		}
		switch {
		case err != nil:
			rr.fail(err)
		case op == OpOK && n == 1:
			rr.end(io.EOF, true)
		case op == OpErr:
			rr.end(remoteError(op, body), first)
		default:
			rr.end(fmt.Errorf("storage: unexpected %s frame in a GET reply", OpName(op)), false)
		}
	}
}

// endChunk checks the trailer of the CHUNK frame whose body was just read.
func (rr *remoteReader) endChunk() {
	if err := readTrailer(rr.c.nc, OpChunk, rr.crc); err != nil {
		rr.fail(err)
	}
}

// fail ends the reply on a transport or framing error. The connection
// closing before the reply's OK is never a clean end of the object.
func (rr *remoteReader) fail(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	rr.end(err, false)
}

// end latches the reply's outcome and releases its connection.
func (rr *remoteReader) end(err error, healthy bool) {
	rr.err = err
	if healthy {
		rr.r.put(rr.c)
	} else {
		rr.r.discard(rr.c)
	}
	rr.c = nil
}

// Close drains an unfinished reply, so the connection is reused only after
// every frame of it has checked out, and returns the reply's error.
func (rr *remoteReader) Close() error {
	if rr.closed {
		return nil
	}
	if rr.err == nil {
		_, _ = io.Copy(io.Discard, rr) // the outcome is latched in rr.err
	}
	rr.closed = true
	if rr.err == io.EOF {
		return nil
	}
	return rr.err
}

// List implements Store.
func (r *Remote) List(prefix string) ([]string, error) {
	c, err := r.get()
	if err != nil {
		return nil, err
	}
	op, body, err := c.call(OpList, AppendString(nil, prefix))
	if err != nil {
		r.discard(c)
		return nil, err
	}
	if op != OpNames {
		rerr := remoteError(op, body)
		r.put(c)
		return nil, rerr
	}
	names, err := DecodeNames(body)
	if err != nil {
		r.discard(c)
		return nil, err
	}
	r.put(c)
	return names, nil
}

// Delete implements Store.
func (r *Remote) Delete(name string) error {
	c, err := r.get()
	if err != nil {
		return err
	}
	op, body, err := c.call(OpDelete, AppendString(nil, name))
	if err != nil {
		r.discard(c)
		return err
	}
	r.put(c)
	if op != OpOK {
		return remoteError(op, body)
	}
	return nil
}

// Size implements Store.
func (r *Remote) Size(name string) (int64, error) {
	c, err := r.get()
	if err != nil {
		return 0, err
	}
	op, body, err := c.call(OpSize, AppendString(nil, name))
	if err != nil {
		r.discard(c)
		return 0, err
	}
	if op != OpInt {
		rerr := remoteError(op, body)
		r.put(c)
		return 0, rerr
	}
	wr := &WireReader{b: body}
	n := int64(wr.U64())
	if err := wr.Done(); err != nil {
		r.discard(c)
		return 0, err
	}
	r.put(c)
	return n, nil
}

// Stat returns the tenant's server-side accounting snapshot: committed
// bytes, quota, in-flight staged bytes, and object count.
func (r *Remote) Stat() (Usage, error) {
	c, err := r.get()
	if err != nil {
		return Usage{}, err
	}
	op, body, err := c.call(OpStat, nil)
	if err != nil {
		r.discard(c)
		return Usage{}, err
	}
	if op != OpUsage {
		rerr := remoteError(op, body)
		r.put(c)
		return Usage{}, rerr
	}
	u, err := DecodeUsage(body)
	if err != nil {
		r.discard(c)
		return Usage{}, err
	}
	r.put(c)
	return u, nil
}
