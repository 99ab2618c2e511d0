// Wire protocol shared by the Remote client store and the lowdiffd
// checkpoint storage daemon (internal/storaged). The protocol is a strict
// request/response exchange of length-prefixed binary frames over one TCP
// connection:
//
//	uint32  payload length N (big endian; N = 1 opcode byte + body)
//	byte    opcode
//	[]byte  body (opcode-specific)
//	uint32  CRC-32 (IEEE) of opcode+body — a per-frame integrity trailer
//
// A connection speaks for exactly one tenant: the first frame must be
// HELLO carrying the protocol version and tenant name. Object uploads are
// streamed: CREATE opens a staged write, DATA frames carry chunks (each
// individually acknowledged, which doubles as flow control), and COMMIT
// publishes the object atomically via the backing store's temp+rename
// contract; ABORT discards the staging. Back-pressure is explicit: an
// admission-controlled server answers CREATE with RETRY instead of OK, and
// clients feed that into their jittered-backoff retry policy.
package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
)

// ProtoVersion is the wire protocol version carried in HELLO frames.
const ProtoVersion = 1

// DefaultMaxFrame bounds a single frame's payload; DATA chunks and names
// must fit. Both sides enforce it, so a corrupt length prefix cannot make
// a receiver allocate unbounded memory.
const DefaultMaxFrame = 8 << 20

// chunkSize is the unit objects are streamed in, in both directions: the
// client's default DATA frame, the server's CHUNK frame, and the one buffer
// size the frame pool holds.
const chunkSize = 1 << 20

// smallFrame is the largest body WriteFrame assembles into one buffer
// instead of a vectored write: every reply but CHUNK and NAMES fits.
const smallFrame = 119

// Opcodes. Client-to-server requests first, then server replies.
const (
	OpHello  byte = 0x01 // version byte + tenant string
	OpCreate byte = 0x02 // object name
	OpData   byte = 0x03 // raw chunk bytes (during an open CREATE)
	OpCommit byte = 0x04 // empty: publish the staged object
	OpAbort  byte = 0x05 // empty: discard the staged object
	OpGet    byte = 0x06 // object name
	OpList   byte = 0x07 // name prefix
	OpDelete byte = 0x08 // object name
	OpSize   byte = 0x09 // object name
	OpStat   byte = 0x0a // empty: tenant usage snapshot

	OpOK    byte = 0x81 // empty
	OpErr   byte = 0x82 // code byte + message string
	OpRetry byte = 0x83 // uint64 back-off hint in milliseconds
	OpChunk byte = 0x84 // raw chunk bytes (GET reply; terminated by OK)
	OpNames byte = 0x85 // uint32 count + strings (LIST reply)
	OpInt   byte = 0x86 // uint64 (SIZE reply)
	OpUsage byte = 0x87 // used, quota, inflight, objects uint64s (STAT reply)
)

// Error codes carried in OpErr frames.
const (
	CodeNotExist   byte = 1 // object does not exist (maps to IsNotExist)
	CodeQuota      byte = 2 // tenant byte quota exceeded (maps to ErrQuotaExceeded)
	CodeBadRequest byte = 3 // malformed frame, bad name, protocol violation
	CodeInternal   byte = 4 // backing-store failure
)

// opName returns a human-readable opcode name for errors and metrics.
func OpName(op byte) string {
	switch op {
	case OpHello:
		return "hello"
	case OpCreate:
		return "create"
	case OpData:
		return "data"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpGet:
		return "get"
	case OpList:
		return "list"
	case OpDelete:
		return "delete"
	case OpSize:
		return "size"
	case OpStat:
		return "stat"
	case OpOK:
		return "ok"
	case OpErr:
		return "err"
	case OpRetry:
		return "retry"
	case OpChunk:
		return "chunk"
	case OpNames:
		return "names"
	case OpInt:
		return "int"
	case OpUsage:
		return "usage"
	default:
		return fmt.Sprintf("op(0x%02x)", op)
	}
}

// WriteFrame emits one frame: length prefix, opcode, body, CRC trailer. The
// three parts leave in one write — a single buffer for small frames, one
// vectored write (writev on a net.Conn, sequential writes on a plain
// io.Writer) for the rest — and body is never copied.
func WriteFrame(w io.Writer, op byte, body []byte) error {
	var small [5 + smallFrame + 4]byte
	hdr := small[:5]
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(body)))
	hdr[4] = op
	crc := crc32.Update(crc32.ChecksumIEEE(hdr[4:5]), crc32.IEEETable, body)
	if len(body) <= smallFrame {
		frame := append(hdr, body...)
		frame = binary.BigEndian.AppendUint32(frame, crc)
		_, err := w.Write(frame)
		return err
	}
	trailer := binary.BigEndian.AppendUint32(small[5:5], crc)
	bufs := net.Buffers{hdr, body, trailer}
	_, err := bufs.WriteTo(w)
	return err
}

// framePool holds the payload buffers of received frames: one opcode byte
// plus one chunk. Pointers to arrays go in and out without allocating.
var framePool = sync.Pool{New: func() any { return new([1 + chunkSize]byte) }}

// Frame is one received frame whose payload may live in a buffer borrowed
// from the frame pool. Whoever holds the Frame owns that buffer until
// Release, or until a ChunkList takes it over; Body must not be touched
// after either.
type Frame struct {
	Op   byte
	Body []byte
	buf  *[1 + chunkSize]byte // nil when Body is not pooled
}

// Release returns the frame's buffer to the pool. It is a no-op on a frame
// that owns none (unpooled, already released, or taken by a ChunkList).
func (f *Frame) Release() {
	if f.buf != nil {
		framePool.Put(f.buf)
		f.buf = nil
	}
	f.Body = nil
}

// BorrowFrame returns a frame whose Body is one empty chunk-sized buffer
// from the pool, for streaming an object out chunk by chunk.
func BorrowFrame() Frame {
	buf := framePool.Get().(*[1 + chunkSize]byte)
	return Frame{Body: buf[1:], buf: buf}
}

// ReadFrame reads one frame, enforcing maxFrame and verifying the CRC
// trailer. A CRC mismatch or oversized frame poisons the connection: the
// caller must close it, because framing can no longer be trusted.
func ReadFrame(r io.Reader, maxFrame int) (op byte, body []byte, err error) {
	f, err := readFrame(r, maxFrame, false)
	return f.Op, f.Body, err
}

// ReadPooledFrame is ReadFrame with the payload read into a pooled buffer
// (frames up to DefaultMaxFrame; ones larger than a chunk are allocated).
// The caller must Release the frame or hand it to a ChunkList.
func ReadPooledFrame(r io.Reader) (Frame, error) {
	return readFrame(r, DefaultMaxFrame, true)
}

func readFrame(r io.Reader, maxFrame int, pooled bool) (Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < 1 || int(n) > maxFrame+1 {
		return Frame{}, fmt.Errorf("storage: frame length %d out of range (max %d)", n, maxFrame)
	}
	var f Frame
	var payload []byte
	if pooled && n <= 1+chunkSize {
		f.buf = framePool.Get().(*[1 + chunkSize]byte)
		payload = f.buf[:n]
	} else {
		payload = make([]byte, n)
	}
	var trailer [4]byte
	_, err := io.ReadFull(r, payload)
	if err == nil {
		_, err = io.ReadFull(r, trailer[:])
	}
	if err == nil {
		if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(trailer[:]); got != want {
			err = fmt.Errorf("storage: frame CRC mismatch on %s (got %08x want %08x)",
				OpName(payload[0]), got, want)
		}
	}
	if err != nil {
		f.Release()
		return Frame{}, err
	}
	f.Op, f.Body = payload[0], payload[1:]
	return f, nil
}

// ChunkList is an object held as the list of frame payloads it arrived in:
// the daemon's upload staging and the client's downloaded object. Adding a
// frame moves its buffer into the list instead of copying it, so the bytes
// are touched once on the way in. The zero value is an empty list. Not safe
// for concurrent use.
type ChunkList struct {
	chunks []Frame
	size   int64
}

// Len returns the number of bytes held.
func (l *ChunkList) Len() int64 { return l.size }

// Add appends the frame's body. A body that fits in the room left in the
// last chunk is copied there and the frame stays the caller's; otherwise
// the list takes the frame's buffer over and f owns nothing afterwards.
// Either way the caller still calls f.Release. Two neighbouring chunks
// therefore always hold more than one chunk of bytes between them, which
// keeps the memory a list pins under twice what it stores (plus one
// buffer) however small the frames a peer chooses to send.
func (l *ChunkList) Add(f *Frame) {
	l.size += int64(len(f.Body))
	if n := len(l.chunks); n > 0 {
		last := &l.chunks[n-1]
		if len(f.Body) <= cap(last.Body)-len(last.Body) {
			last.Body = append(last.Body, f.Body...)
			return
		}
	}
	l.chunks = append(l.chunks, *f)
	f.buf, f.Body = nil, nil
}

// Release returns every pooled buffer and empties the list.
func (l *ChunkList) Release() {
	for i := range l.chunks {
		l.chunks[i].Release()
	}
	l.chunks, l.size = nil, 0
}

// Commit writes the held bytes to s as one object, with WriteObject's
// contract: on error nothing became visible. A writer of this package's
// in-memory kind is told the total up front, so it stages the object in a
// buffer of exactly that size; any other writer just sees the chunks in
// order. The list keeps its buffers; the caller releases them.
func (l *ChunkList) Commit(s Store, name string) error {
	w, err := s.Create(name)
	if err != nil {
		return err
	}
	if mw, ok := w.(*memWriter); ok {
		mw.presize(l.size)
	}
	for _, c := range l.chunks {
		if _, err := w.Write(c.Body); err != nil {
			_ = AbortWriter(w) // write failed; surface that error, not the abort's
			return err
		}
	}
	return w.Close()
}

// reader serves the held bytes and releases the list's buffers on Close.
func (l *ChunkList) reader() io.ReadCloser { return &chunkReader{l: l} }

type chunkReader struct {
	l   *ChunkList
	i   int // chunk being read
	off int // bytes of it already served
}

func (r *chunkReader) Read(p []byte) (int, error) {
	total := 0
	for total < len(p) && r.i < len(r.l.chunks) {
		n := copy(p[total:], r.l.chunks[r.i].Body[r.off:])
		total += n
		r.off += n
		if r.off == len(r.l.chunks[r.i].Body) {
			r.i, r.off = r.i+1, 0
		}
	}
	if total == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return total, nil
}

func (r *chunkReader) Close() error {
	r.l.Release()
	return nil
}

// Body encoding helpers: strings are uint32-length-prefixed, integers are
// 8-byte big endian. Decoding is strict — short bodies and trailing bytes
// are protocol errors, mirroring the checkpoint package's strict parsing.

func AppendU64(b []byte, v uint64) []byte {
	var x [8]byte
	binary.BigEndian.PutUint64(x[:], v)
	return append(b, x[:]...)
}

func AppendString(b []byte, s string) []byte {
	var x [4]byte
	binary.BigEndian.PutUint32(x[:], uint32(len(s)))
	return append(append(b, x[:]...), s...)
}

// WireReader decodes a frame body with a sticky error.
type WireReader struct {
	b   []byte
	err error
}

// NewWireReader wraps a frame body for strict decoding.
func NewWireReader(b []byte) *WireReader { return &WireReader{b: b} }

func (r *WireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("storage: truncated frame body")
	}
}

func (r *WireReader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[:8])
	r.b = r.b[8:]
	return v
}

func (r *WireReader) U32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[:4])
	r.b = r.b[4:]
	return v
}

func (r *WireReader) Str() string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	if uint32(len(r.b)) < n {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *WireReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// done asserts the body was fully consumed.
func (r *WireReader) Done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("storage: %d trailing bytes in frame body", len(r.b))
	}
	return nil
}

// Usage is a tenant's accounting snapshot as reported by STAT.
type Usage struct {
	UsedBytes     int64 // committed bytes in the tenant's namespace
	QuotaBytes    int64 // configured quota (0: unlimited)
	InflightBytes int64 // staged bytes of writes still in flight
	Objects       int64 // committed object count
}

func EncodeUsage(u Usage) []byte {
	b := make([]byte, 0, 32)
	b = AppendU64(b, uint64(u.UsedBytes))
	b = AppendU64(b, uint64(u.QuotaBytes))
	b = AppendU64(b, uint64(u.InflightBytes))
	b = AppendU64(b, uint64(u.Objects))
	return b
}

func DecodeUsage(body []byte) (Usage, error) {
	r := &WireReader{b: body}
	u := Usage{
		UsedBytes:     int64(r.U64()),
		QuotaBytes:    int64(r.U64()),
		InflightBytes: int64(r.U64()),
		Objects:       int64(r.U64()),
	}
	return u, r.Done()
}

func EncodeNames(names []string) []byte {
	sz := 4
	for _, n := range names {
		sz += 4 + len(n)
	}
	b := make([]byte, 0, sz)
	var x [4]byte
	binary.BigEndian.PutUint32(x[:], uint32(len(names)))
	b = append(b, x[:]...)
	for _, n := range names {
		b = AppendString(b, n)
	}
	return b
}

func DecodeNames(body []byte) ([]string, error) {
	r := &WireReader{b: body}
	n := r.U32()
	var names []string
	for i := uint32(0); i < n && r.err == nil; i++ {
		names = append(names, r.Str())
	}
	return names, r.Done()
}
