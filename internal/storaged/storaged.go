// Package storaged implements the lowdiffd checkpoint storage daemon: a
// multi-tenant TCP server speaking the length-prefixed binary protocol in
// internal/storage/remoteproto.go, so many training jobs can share one
// checkpoint pool (the Portus-style deployment the paper's evaluation
// assumes) instead of each writing to its own local directory.
//
// Each tenant gets an isolated namespace backed by its own Store, a byte
// quota, and an admission-control bound on in-flight staged bytes. When a
// tenant's staged uploads exceed the bound the daemon answers CREATE with
// RETRY (carrying a back-off hint) rather than queueing unboundedly — the
// storage.Remote client converts that into jittered-backoff retries, and
// the engines' fault-tolerance ladder treats exhaustion as a transient
// persist failure. Uploads are staged in memory — in the pooled buffers
// their DATA frames were read into — and committed through the backing
// store's temp+rename contract, so a tenant crash, a dropped connection, or
// a quota rejection mid-upload never publishes a torn object. On
// full-checkpoint arrival the daemon can re-validate the tenant's whole
// chain with recovery.Verify, catching silent corruption at the moment a
// new recovery anchor appears instead of at restore time.
package storaged

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"lowdiff/internal/obs"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
)

// TenantConfig overrides per-tenant limits.
type TenantConfig struct {
	// QuotaBytes caps the tenant's committed bytes (0 inherits the
	// server default; negative means unlimited).
	QuotaBytes int64
	// MaxInflightBytes caps staged upload bytes before CREATE is answered
	// with RETRY (0 inherits the server default; negative means unlimited).
	MaxInflightBytes int64
}

// Config configures a Server. OpenStore is required; everything else has
// workable defaults.
type Config struct {
	// OpenStore opens (or creates) the backing store for a tenant
	// namespace. It is called once per tenant, on first HELLO.
	OpenStore func(tenant string) (storage.Store, error)
	// DefaultQuotaBytes is the committed-byte quota for tenants without an
	// override (0 or negative: unlimited).
	DefaultQuotaBytes int64
	// DefaultMaxInflightBytes bounds staged upload bytes per tenant before
	// admission control sheds CREATEs with RETRY (0 or negative: unlimited).
	DefaultMaxInflightBytes int64
	// Tenants holds per-tenant limit overrides keyed by tenant name.
	Tenants map[string]TenantConfig
	// RetryHintMillis is the back-off hint carried in RETRY frames
	// (default 5).
	RetryHintMillis uint64
	// ValidateFulls re-validates the tenant's checkpoint chain with
	// recovery.Verify whenever a full checkpoint commits.
	ValidateFulls bool
	// Registry receives per-tenant gauges and counters; nil disables
	// metrics.
	Registry *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.RetryHintMillis == 0 {
		c.RetryHintMillis = 5
	}
	return c
}

// Server is a running daemon instance.
type Server struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	tenants map[string]*tenant
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

// tenant is one namespace with its accounting and limits. Accounting is
// guarded by mu; commits additionally serialize on commitMu so that
// concurrent same-name uploads resolve by commit order (last close wins)
// with consistent byte accounting.
type tenant struct {
	name        string
	store       storage.Store
	quota       int64 // <= 0: unlimited
	maxInflight int64 // <= 0: unlimited

	mu       sync.Mutex
	used     int64
	objects  int64
	inflight int64

	commitMu sync.Mutex

	usedGauge     *obs.Gauge
	inflightGauge *obs.Gauge
	objectsGauge  *obs.Gauge
	commits       *obs.Counter
	retries       *obs.Counter
	quotaRejects  *obs.Counter
	validations   *obs.Counter
	validateFails *obs.Counter
}

// New validates the configuration and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.OpenStore == nil {
		return nil, fmt.Errorf("storaged: Config.OpenStore is required")
	}
	return &Server{
		cfg:     cfg.withDefaults(),
		tenants: map[string]*tenant{},
		conns:   map[net.Conn]struct{}{},
	}, nil
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves until Close.
func Start(addr string, cfg Config) (*Server, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("storaged: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection, and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns { //lint:allow determinism teardown order of live conns carries no data
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close() // unblocks the handler; its read error is expected
	}
	s.wg.Wait()
	return err
}

// Health reports daemon health for an obs.Serve /healthz endpoint.
func (s *Server) Health() obs.HealthStatus {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return obs.HealthStatus{Status: "closed", OK: false}
	}
	return obs.HealthStatus{Status: "ok", OK: true}
}

// Usage returns a tenant's accounting snapshot, or false if the tenant has
// never connected.
func (s *Server) Usage(name string) (storage.Usage, bool) {
	s.mu.Lock()
	t := s.tenants[name]
	s.mu.Unlock()
	if t == nil {
		return storage.Usage{}, false
	}
	return t.usage(), true
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close() // shutting down; the dial side sees a reset
			return
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(nc)
	}
}

// validTenant enforces that tenant names are usable as directory names
// under the daemon's root: no separators, no traversal, not hidden.
func validTenant(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	if strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return false
	}
	return true
}

// getTenant returns the tenant state, opening its backing store and
// rebuilding byte accounting from it on first contact (so a daemon restart
// over an existing root resumes with correct quotas).
func (s *Server) getTenant(name string) (*tenant, error) {
	s.mu.Lock()
	if t := s.tenants[name]; t != nil {
		s.mu.Unlock()
		return t, nil
	}
	s.mu.Unlock()

	store, err := s.cfg.OpenStore(name)
	if err != nil {
		return nil, fmt.Errorf("storaged: open store for tenant %q: %w", name, err)
	}
	t := &tenant{
		name:        name,
		store:       store,
		quota:       s.cfg.DefaultQuotaBytes,
		maxInflight: s.cfg.DefaultMaxInflightBytes,
	}
	if over, ok := s.cfg.Tenants[name]; ok {
		if over.QuotaBytes != 0 {
			t.quota = over.QuotaBytes
		}
		if over.MaxInflightBytes != 0 {
			t.maxInflight = over.MaxInflightBytes
		}
	}
	names, err := store.List("")
	if err != nil {
		return nil, fmt.Errorf("storaged: scan tenant %q: %w", name, err)
	}
	for _, n := range names {
		sz, err := store.Size(n)
		if err != nil {
			if storage.IsNotExist(err) {
				continue // deleted between List and Size
			}
			return nil, fmt.Errorf("storaged: size %s/%s: %w", name, n, err)
		}
		t.used += sz
		t.objects++
	}
	if r := s.cfg.Registry; r != nil {
		lbl := obs.L("tenant", name)
		t.usedGauge = r.Gauge("storaged_tenant_used_bytes", lbl)
		t.inflightGauge = r.Gauge("storaged_tenant_inflight_bytes", lbl)
		t.objectsGauge = r.Gauge("storaged_tenant_objects", lbl)
		t.commits = r.Counter("storaged_commits_total", lbl)
		t.retries = r.Counter("storaged_retries_total", lbl)
		t.quotaRejects = r.Counter("storaged_quota_rejects_total", lbl)
		t.validations = r.Counter("storaged_validations_total", lbl)
		t.validateFails = r.Counter("storaged_validation_failures_total", lbl)
	}
	t.usedGauge.Set(t.used)
	t.objectsGauge.Set(t.objects)

	s.mu.Lock()
	defer s.mu.Unlock()
	if existing := s.tenants[name]; existing != nil {
		return existing, nil // lost the race; the first opener wins
	}
	s.tenants[name] = t
	return t, nil
}

func (t *tenant) usage() storage.Usage {
	t.mu.Lock()
	defer t.mu.Unlock()
	quota := t.quota
	if quota < 0 {
		quota = 0
	}
	return storage.Usage{
		UsedBytes:     t.used,
		QuotaBytes:    quota,
		InflightBytes: t.inflight,
		Objects:       t.objects,
	}
}

// admit decides whether a new staged upload may start.
func (t *tenant) admit() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.maxInflight > 0 && t.inflight >= t.maxInflight {
		return false
	}
	return true
}

func (t *tenant) addInflight(n int64) {
	t.mu.Lock()
	t.inflight += n
	v := t.inflight
	t.mu.Unlock()
	t.inflightGauge.Set(v)
}

// staging is one in-progress upload on a connection. The staged bytes are
// the DATA frames' own payload buffers; whoever ends the upload (COMMIT,
// ABORT, a rejection, the connection dying) hands them back through drop.
type staging struct {
	name     string
	existing int64 // committed size of the same name, -1 when absent
	chunks   storage.ChunkList
}

// drop ends an upload: its bytes stop counting as in flight and its
// buffers return to the frame pool.
func (t *tenant) drop(up *staging) {
	t.addInflight(-up.chunks.Len())
	up.chunks.Release()
}

// handle runs one connection's request loop. Any transport or framing
// error tears the connection down; well-formed requests that fail are
// answered with storage.OpErr and the connection stays usable.
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	var t *tenant
	var up *staging
	defer func() {
		if up != nil {
			t.drop(up)
		}
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		_ = nc.Close() // already torn down or drained; nothing to report to
	}()

	hello := true
	for {
		f, err := storage.ReadPooledFrame(nc)
		if err != nil {
			return // EOF, reset, oversize, or CRC mismatch: drop the conn
		}
		if hello {
			name, refusal := parseHello(&f)
			f.Release()
			if refusal != "" {
				_ = writeErr(nc, storage.CodeBadRequest, refusal)
				return
			}
			if t, err = s.getTenant(name); err != nil {
				_ = writeErr(nc, storage.CodeInternal, err.Error())
				return
			}
			if err := storage.WriteFrame(nc, storage.OpOK, nil); err != nil {
				return
			}
			hello = false
			continue
		}
		// The frame's buffer is the handler's for the length of the call. A
		// handler that wants the bytes longer moves them into a ChunkList,
		// which leaves the Release below nothing to return; no handler may
		// keep a reference to f.Body any other way.
		up, err = s.dispatch(nc, t, up, &f)
		f.Release()
		if err != nil {
			return
		}
	}
}

// parseHello validates the first frame of a connection and returns the
// tenant name, or the message to refuse the connection with.
func parseHello(f *storage.Frame) (name, refusal string) {
	if f.Op != storage.OpHello {
		return "", "first frame must be HELLO"
	}
	r := storage.NewWireReader(f.Body)
	version := r.Byte()
	name = r.Str()
	if err := r.Done(); err != nil {
		return "", err.Error()
	}
	if version != storage.ProtoVersion {
		return "", fmt.Sprintf("protocol version %d unsupported (want %d)", version, storage.ProtoVersion)
	}
	if !validTenant(name) {
		return "", fmt.Sprintf("invalid tenant name %q", name)
	}
	return name, ""
}

// dispatch handles one post-HELLO request frame and returns the new
// staging state. A non-nil error means the connection must be dropped.
func (s *Server) dispatch(nc net.Conn, t *tenant, up *staging, f *storage.Frame) (*staging, error) {
	switch f.Op {
	case storage.OpCreate:
		return s.handleCreate(nc, t, up, f.Body)
	case storage.OpData:
		return s.handleData(nc, t, up, f)
	case storage.OpCommit:
		return s.handleCommit(nc, t, up, f.Body)
	case storage.OpAbort:
		if up != nil {
			t.drop(up)
		}
		return nil, storage.WriteFrame(nc, storage.OpOK, nil)
	case storage.OpGet:
		return up, s.handleGet(nc, t, f.Body)
	case storage.OpList:
		return up, s.handleList(nc, t, f.Body)
	case storage.OpDelete:
		return up, s.handleDelete(nc, t, f.Body)
	case storage.OpSize:
		return up, s.handleSize(nc, t, f.Body)
	case storage.OpStat:
		return up, storage.WriteFrame(nc, storage.OpUsage, storage.EncodeUsage(t.usage()))
	default:
		return up, writeErr(nc, storage.CodeBadRequest, fmt.Sprintf("unexpected %s request", storage.OpName(f.Op)))
	}
}

func (s *Server) handleCreate(nc net.Conn, t *tenant, up *staging, body []byte) (*staging, error) {
	name, err := decodeName(body)
	if err == nil {
		err = storage.CheckName(name)
	}
	if err != nil {
		return up, writeErr(nc, storage.CodeBadRequest, err.Error())
	}
	if up != nil {
		return up, writeErr(nc, storage.CodeBadRequest, "CREATE while an upload is staged")
	}
	if !t.admit() {
		t.retries.Inc()
		return nil, storage.WriteFrame(nc, storage.OpRetry, storage.AppendU64(nil, s.cfg.RetryHintMillis))
	}
	existing, err := t.store.Size(name)
	if err != nil {
		if !storage.IsNotExist(err) {
			return nil, writeErr(nc, storage.CodeInternal, err.Error())
		}
		existing = -1 // sentinel: no committed object under this name
	}
	return &staging{name: name, existing: existing}, storage.WriteFrame(nc, storage.OpOK, nil)
}

// handleData moves the frame's payload into the upload's staging: the
// buffer it was read into becomes part of the staged object.
func (s *Server) handleData(nc net.Conn, t *tenant, up *staging, f *storage.Frame) (*staging, error) {
	if up == nil {
		return nil, writeErr(nc, storage.CodeBadRequest, "DATA without CREATE")
	}
	n := int64(len(f.Body))
	// Quota is enforced while bytes stream in, so a tenant cannot blow
	// past its budget by holding one huge upload in staging. Overwrites
	// are charged for their delta only.
	if t.quota > 0 {
		t.mu.Lock()
		projected := t.used + up.chunks.Len() + n
		if up.existing > 0 {
			projected -= up.existing
		}
		over := projected > t.quota
		t.mu.Unlock()
		if over {
			t.drop(up)
			t.quotaRejects.Inc()
			return nil, writeErr(nc, storage.CodeQuota,
				fmt.Sprintf("tenant %s over %d-byte quota", t.name, t.quota))
		}
	}
	up.chunks.Add(f)
	t.addInflight(n)
	return up, storage.WriteFrame(nc, storage.OpOK, nil)
}

func (s *Server) handleCommit(nc net.Conn, t *tenant, up *staging, body []byte) (*staging, error) {
	if up == nil {
		return nil, writeErr(nc, storage.CodeBadRequest, "COMMIT without CREATE")
	}
	if len(body) != 0 {
		return up, writeErr(nc, storage.CodeBadRequest, "COMMIT carries no body")
	}
	err := s.commit(t, up)
	// Release the staged bytes before replying, on success and on failure:
	// a client that has read the reply must not still see them in flight.
	t.drop(up)
	if err != nil {
		return nil, writeErr(nc, storage.CodeInternal, err.Error())
	}
	return nil, storage.WriteFrame(nc, storage.OpOK, nil)
}

// commit makes the staged object visible in the tenant's store and charges
// its quota by the overwrite delta. On error nothing became visible.
func (s *Server) commit(t *tenant, up *staging) error {
	staged := up.chunks.Len()
	// Serialize commits so same-name racers resolve in commit order and
	// the pre-size measurement pairs with the write it accounts for.
	t.commitMu.Lock()
	pre, err := t.store.Size(up.name)
	if err != nil {
		if !storage.IsNotExist(err) {
			t.commitMu.Unlock()
			return err
		}
		pre = -1
	}
	err = up.chunks.Commit(t.store, up.name)
	t.commitMu.Unlock()
	if err != nil {
		// Commit aborted the staged write: nothing became visible.
		return err
	}

	t.mu.Lock()
	if pre >= 0 {
		t.used -= pre
	} else {
		t.objects++
	}
	t.used += staged
	used, objects := t.used, t.objects
	t.mu.Unlock()
	t.usedGauge.Set(used)
	t.objectsGauge.Set(objects)
	t.commits.Inc()

	if s.cfg.ValidateFulls && strings.HasPrefix(up.name, "full-") {
		t.validations.Inc()
		if report, verr := recovery.Verify(t.store, recovery.ValidateOptions{}); verr != nil || !report.Clean() {
			t.validateFails.Inc()
		}
	}
	return nil
}

// handleGet streams an object back as CHUNK frames and an OK. The store's
// reader is copied into a Framer: a hot object, held in memory, goes out
// from its own bytes, and anything else is read a chunk at a time into one
// pooled buffer.
func (s *Server) handleGet(nc net.Conn, t *tenant, body []byte) error {
	name, err := decodeName(body)
	if err != nil {
		return writeErr(nc, storage.CodeBadRequest, err.Error())
	}
	rc, err := t.store.Open(name)
	if err != nil {
		return writeStoreErr(nc, err)
	}
	defer rc.Close()
	fr := storage.NewFramer(storage.ChunkSize, func(body []byte) error {
		return storage.WriteFrame(nc, storage.OpChunk, body)
	})
	defer fr.Release()
	_, err = io.Copy(fr, rc)
	if err == nil {
		err = fr.Flush()
	}
	if werr := fr.Err(); werr != nil {
		return werr
	}
	if err != nil {
		// Mid-stream read failure: the client has a prefix it cannot
		// trust, so the error frame doubles as a poison pill.
		return writeErr(nc, storage.CodeInternal, err.Error())
	}
	return storage.WriteFrame(nc, storage.OpOK, nil)
}

func (s *Server) handleList(nc net.Conn, t *tenant, body []byte) error {
	prefix, err := decodeName(body)
	if err != nil {
		return writeErr(nc, storage.CodeBadRequest, err.Error())
	}
	names, err := t.store.List(prefix)
	if err != nil {
		return writeStoreErr(nc, err)
	}
	return storage.WriteFrame(nc, storage.OpNames, storage.EncodeNames(names))
}

func (s *Server) handleDelete(nc net.Conn, t *tenant, body []byte) error {
	name, err := decodeName(body)
	if err != nil {
		return writeErr(nc, storage.CodeBadRequest, err.Error())
	}
	t.commitMu.Lock()
	pre, serr := t.store.Size(name)
	if serr == nil {
		serr = t.store.Delete(name)
	}
	t.commitMu.Unlock()
	if serr != nil {
		return writeStoreErr(nc, serr)
	}
	t.mu.Lock()
	t.used -= pre
	t.objects--
	used, objects := t.used, t.objects
	t.mu.Unlock()
	t.usedGauge.Set(used)
	t.objectsGauge.Set(objects)
	return storage.WriteFrame(nc, storage.OpOK, nil)
}

func (s *Server) handleSize(nc net.Conn, t *tenant, body []byte) error {
	name, err := decodeName(body)
	if err != nil {
		return writeErr(nc, storage.CodeBadRequest, err.Error())
	}
	sz, err := t.store.Size(name)
	if err != nil {
		return writeStoreErr(nc, err)
	}
	return storage.WriteFrame(nc, storage.OpInt, storage.AppendU64(nil, uint64(sz)))
}

// decodeName decodes a single-string frame body.
func decodeName(body []byte) (string, error) {
	r := storage.NewWireReader(body)
	name := r.Str()
	if err := r.Done(); err != nil {
		return "", err
	}
	return name, nil
}

// writeErr answers a request with an storage.OpErr frame.
func writeErr(nc net.Conn, code byte, msg string) error {
	return storage.WriteFrame(nc, storage.OpErr, storage.AppendString([]byte{code}, msg))
}

// writeStoreErr maps a backing-store error onto the wire vocabulary so the
// client's IsNotExist keeps working across the network.
func writeStoreErr(nc net.Conn, err error) error {
	code := storage.CodeInternal
	if storage.IsNotExist(err) {
		code = storage.CodeNotExist
	} else if errors.Is(err, storage.ErrQuotaExceeded) {
		code = storage.CodeQuota
	}
	return writeErr(nc, code, err.Error())
}
