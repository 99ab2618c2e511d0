// Package checkpoint defines the on-disk checkpoint model of the paper
// (§2.2): full checkpoints C^F (model parameters + optimizer state, 3Ψ for
// Adam) and differential checkpoints C^D. A differential carries either a
// reused compressed gradient (LowDiff: C^D_t = Adam(G~_t) is re-derived at
// recovery by replaying the optimizer) or a compressed model-state delta
// (Naïve DC / Check-N-Run semantics), possibly batched over a contiguous
// iteration range (§4.2).
//
// Records are CRC-32C framed so torn or corrupt checkpoints are detected at
// load instead of silently corrupting recovery.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
	"sync"

	"lowdiff/internal/compress"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// DiffKind discriminates what a differential checkpoint carries.
type DiffKind uint8

const (
	// KindGradient marks a reused (compressed) gradient; recovery replays
	// the optimizer step (LowDiff).
	KindGradient DiffKind = 1
	// KindStateDelta marks a compressed model-state delta; recovery adds
	// it to the parameters directly (Naïve DC / Check-N-Run).
	KindStateDelta DiffKind = 2
)

func (k DiffKind) String() string {
	switch k {
	case KindGradient:
		return "gradient"
	case KindStateDelta:
		return "state-delta"
	default:
		return fmt.Sprintf("DiffKind(%d)", uint8(k))
	}
}

// Full is a full checkpoint: everything needed to resume training.
type Full struct {
	Iter   int64 // iterations completed when the checkpoint was taken
	Params tensor.Vector
	Opt    optim.State
}

// Diff is a differential checkpoint covering iterations
// [FirstIter, LastIter] (inclusive); unbatched differentials have
// FirstIter == LastIter. Count is the number of accumulated gradients
// (== LastIter-FirstIter+1 for gradient batches).
type Diff struct {
	Kind      DiffKind
	FirstIter int64
	LastIter  int64
	Count     int32
	Payload   *compress.Compressed
}

// Validate checks internal consistency of a differential.
func (d *Diff) Validate() error {
	if d.Kind != KindGradient && d.Kind != KindStateDelta {
		return fmt.Errorf("checkpoint: invalid diff kind %d", d.Kind)
	}
	if d.FirstIter > d.LastIter {
		return fmt.Errorf("checkpoint: diff range [%d,%d] inverted", d.FirstIter, d.LastIter)
	}
	if d.Count <= 0 {
		return fmt.Errorf("checkpoint: diff count %d must be positive", d.Count)
	}
	if d.Payload == nil {
		return fmt.Errorf("checkpoint: diff has no payload")
	}
	return d.Payload.Validate()
}

// Wire format constants.
const (
	fullMagic = 0x4c444643 // "LDFC"
	diffMagic = 0x4c444443 // "LDDC"
	version   = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frame is what the two record kinds share: a magic and the version, the
// kind's fields, and a CRC-32C trailer over all of them.
type frame struct {
	magic uint32
	kind  string // "full" or "diff", in messages
	head  int    // bytes of fixed fields after the version, read with it
	// overlap checks the CRC on a helper goroutine (crcHelper) on hosts
	// where vector reads leave their bytes as they arrived.
	overlap bool
}

var (
	fullFrame = frame{magic: fullMagic, kind: "full", head: 16, overlap: true} // iteration, parameter count
	diffFrame = frame{magic: diffMagic, kind: "diff", head: 21}                // kind, first, last, count
)

// frameWriter passes a record's bytes to w and folds them into the CRC.
type frameWriter struct {
	w   io.Writer
	crc uint32
}

func (t *frameWriter) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	t.crc = crc32.Update(t.crc, crcTable, p[:n])
	return n, err
}

// write sends one record to w: the header, body's fields, the trailer.
func (fr frame) write(w io.Writer, body func(*compress.FieldWriter)) error {
	t := &frameWriter{w: w}
	e := compress.NewFieldWriter(t)
	e.U32(fr.magic)
	e.U32(version)
	body(e)
	err := e.Flush()
	if err == nil {
		e.U32(t.crc) // the sum is taken before the trailer passes t
		err = e.Flush()
	}
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s: %w", fr.kind, err)
	}
	return nil
}

// readHead reads and checks the magic and version, and reads the kind's
// fixed fields with them.
func (fr frame) readHead(d *compress.FieldReader) error {
	d.Need(8 + fr.head)
	magic, ver := d.U32(), d.U32()
	switch {
	case d.Err() != nil:
		return fmt.Errorf("checkpoint: decode %s header: %w", fr.kind, d.Err())
	case magic != fr.magic:
		return fmt.Errorf("checkpoint: bad %s-checkpoint magic %#x", fr.kind, magic)
	case ver != version:
		return fmt.Errorf("checkpoint: unsupported version %d", ver)
	}
	return nil
}

// readFrame reads one record of fr's kind from r, body decoding its fields,
// and checks the CRC trailer.
func readFrame[T any](r io.Reader, fr frame, body func(*compress.FieldReader) (*T, error)) (*T, error) {
	var cr summingReader
	if fr.overlap && compress.ReadKeepsWireBytes() {
		cr = newCRCHelper(r)
	} else {
		cr = newCRCReader(r)
	}
	d := compress.NewFieldReader(cr)
	var v *T
	err := fr.readHead(d)
	if err == nil {
		v, err = body(d)
	}
	sum := cr.Sum32() // waits for the helper on every path
	if err != nil {
		return nil, err
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("checkpoint: read %s crc: %w", fr.kind, err)
	}
	if stored := binary.LittleEndian.Uint32(tail[:]); stored != sum {
		return nil, fmt.Errorf("checkpoint: %s checkpoint crc mismatch: stored %#x, computed %#x", fr.kind, stored, sum)
	}
	return v, nil
}

// crcReader tees reads into a running CRC.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func newCRCReader(r io.Reader) *crcReader { return &crcReader{r: r} }

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crcTable, p[:n])
	return n, err
}

func (c *crcReader) Sum32() uint32 { return c.crc }

// summingReader is a reader that checksums what it has read.
type summingReader interface {
	io.Reader
	Sum32() uint32
}

// crcQueue is how many read slices crcHelper holds before Read waits.
const crcQueue = 32

// crcHelper is crcReader with the CRC on a goroutine of its own: each Read
// hands the bytes it filled to the helper, in order, and returns, so the
// CRC of one slice overlaps the read of the next. The helper reads those
// bytes after Read returns, so the caller must leave them as they arrived
// until Sum32, which a little-endian host's decode does: vectors are read
// in place into the result, and small fields into a FieldReader's arena,
// which is never rewritten.
type crcHelper struct {
	r    io.Reader
	segs chan []byte
	done sync.WaitGroup
	crc  uint32 // the helper's, until done
}

func newCRCHelper(r io.Reader) *crcHelper {
	c := &crcHelper{r: r, segs: make(chan []byte, crcQueue)}
	c.done.Add(1)
	go c.fold()
	return c
}

func (c *crcHelper) fold() {
	defer c.done.Done()
	for p := range c.segs {
		c.crc = crc32.Update(c.crc, crcTable, p)
	}
}

func (c *crcHelper) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.segs <- p[:n]
	}
	return n, err
}

// Sum32 stops the helper and returns the CRC of everything read. Call it
// exactly once, on every path: it is what ends the goroutine.
func (c *crcHelper) Sum32() uint32 {
	close(c.segs)
	c.done.Wait()
	return c.crc
}

// stringField stages s with its 16-bit length.
func stringField(e *compress.FieldWriter, s string) {
	if len(s) > math.MaxUint16 {
		e.Fail(fmt.Errorf("string too long: %d", len(s)))
		return
	}
	e.U16(uint16(len(s)))
	e.String(s)
}

// sortedKeys returns m's keys in order: records never follow map order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //lint:allow determinism keys are sorted below; nothing is written in map order
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Encode writes a full checkpoint record. On a little-endian host each
// vector goes to w straight from its own memory, so w must neither modify
// nor retain the slice passed to Write.
func (f *Full) Encode(w io.Writer) error {
	return fullFrame.write(w, func(e *compress.FieldWriter) {
		e.U64(uint64(f.Iter))
		e.U64(uint64(len(f.Params)))
		e.F32s(f.Params)
		stringField(e, f.Opt.Name)
		e.U64(uint64(f.Opt.Step))
		scalars := sortedKeys(f.Opt.Scalars)
		e.U32(uint32(len(scalars)))
		for _, k := range scalars {
			stringField(e, k)
			e.U64(math.Float64bits(f.Opt.Scalars[k]))
		}
		slots := sortedKeys(f.Opt.Slots)
		e.U32(uint32(len(slots)))
		for _, k := range slots {
			stringField(e, k)
			e.U64(uint64(len(f.Opt.Slots[k])))
			e.F32s(f.Opt.Slots[k])
		}
	})
}

// EncodeWith is Encode; its second argument is ignored.
//
// Deprecated: call Encode.
func (f *Full) EncodeWith(w io.Writer, _ any) error { return f.Encode(w) }

// DecodeFull reads a full checkpoint record and verifies its CRC. On a
// little-endian host a helper goroutine computes the CRC over the bytes
// read, one slice behind the reader, and is done before DecodeFull returns.
func DecodeFull(r io.Reader) (*Full, error) {
	return readFrame(r, fullFrame, decodeFull)
}

// decodeFull reads a full checkpoint's fields after its header's magic and
// version.
func decodeFull(d *compress.FieldReader) (*Full, error) {
	f := &Full{Iter: int64(d.U64())}
	if f.Params = d.F32s(d.U64()); d.Err() != nil {
		return nil, fmt.Errorf("checkpoint: decode params: %w", d.Err())
	}
	n := int(d.U16())
	d.Need(n + 8 + 4)
	f.Opt.Name, f.Opt.Step = d.String(n), int64(d.U64())
	nScalars := d.U32()
	if nScalars > 1<<16 {
		return nil, fmt.Errorf("checkpoint: implausible scalar count %d", nScalars)
	}
	f.Opt.Scalars = make(map[string]float64, nScalars)
	for i := uint32(0); i < nScalars && d.Err() == nil; i++ {
		n := int(d.U16())
		d.Need(n + 8)
		k := d.String(n)
		f.Opt.Scalars[k] = math.Float64frombits(d.U64())
	}
	nSlots := d.U32()
	if nSlots > 1<<16 {
		return nil, fmt.Errorf("checkpoint: implausible slot count %d", nSlots)
	}
	f.Opt.Slots = make(map[string][]float32, nSlots)
	for i := uint32(0); i < nSlots && d.Err() == nil; i++ {
		n := int(d.U16())
		d.Need(n + 8)
		k := d.String(n)
		if f.Opt.Slots[k] = d.F32s(d.U64()); d.Err() != nil {
			return nil, fmt.Errorf("checkpoint: decode slot %q: %w", k, d.Err())
		}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return f, nil
}

// Encode writes a differential checkpoint record. On a little-endian host
// the payload's vectors go to w straight from their own memory, so w must
// neither modify nor retain the slice passed to Write.
func (d *Diff) Encode(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return err
	}
	return diffFrame.write(w, func(e *compress.FieldWriter) {
		e.U8(byte(d.Kind))
		e.U64(uint64(d.FirstIter))
		e.U64(uint64(d.LastIter))
		e.U32(uint32(d.Count))
		d.Payload.EncodeFields(e)
	})
}

// EncodeWith is Encode; its second argument is ignored.
//
// Deprecated: call Encode.
func (d *Diff) EncodeWith(w io.Writer, _ any) error { return d.Encode(w) }

// DecodeDiff reads a differential checkpoint record and verifies its CRC.
func DecodeDiff(r io.Reader) (*Diff, error) {
	d, err := readFrame(r, diffFrame, decodeDiff)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// decodeDiff reads a differential's fields after its header's magic and
// version.
func decodeDiff(fd *compress.FieldReader) (*Diff, error) {
	d := &Diff{Kind: DiffKind(fd.U8()), FirstIter: int64(fd.U64()), LastIter: int64(fd.U64()), Count: int32(fd.U32())}
	var err error
	d.Payload, err = compress.DecodeFields(fd)
	return d, err
}

// save persists a record under name and returns that name. A failed encode
// aborts the object, so nothing appears under name.
func save(s storage.Store, name string, rec interface{ Encode(io.Writer) error }) (string, error) {
	w, err := s.Create(name)
	if err != nil {
		return "", err
	}
	if err := rec.Encode(w); err != nil {
		_ = storage.AbortWriter(w) // encode failed; surface that error, not the abort's
		return "", err
	}
	return name, w.Close()
}

// load opens name and decodes one record from it. A decode stops at its
// record's end; Close reads the rest of the object, and a streaming store
// checks its last bytes only there, so Close's error counts as the load's.
func load[T any](s storage.Store, name string, decode func(io.Reader) (*T, error)) (*T, error) {
	r, err := s.Open(name)
	if err != nil {
		return nil, err
	}
	v, err := decode(r)
	if cerr := r.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// SaveFull persists a full checkpoint under its canonical name and returns
// that name.
func SaveFull(s storage.Store, f *Full) (string, error) { return save(s, FullName(f.Iter), f) }

// LoadFull loads a full checkpoint by name.
func LoadFull(s storage.Store, name string) (*Full, error) { return load(s, name, DecodeFull) }

// SaveDiff persists a differential checkpoint under its canonical name and
// returns that name.
func SaveDiff(s storage.Store, d *Diff) (string, error) {
	return save(s, DiffName(d.FirstIter, d.LastIter), d)
}

// LoadDiff loads a differential checkpoint by name.
func LoadDiff(s storage.Store, name string) (*Diff, error) { return load(s, name, DecodeDiff) }
