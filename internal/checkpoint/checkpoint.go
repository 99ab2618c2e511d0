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
	"hash"
	"hash/crc32"
	"io"
	"math"
	"sort"

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

// crcWriter tees writes into a running CRC.
type crcWriter struct {
	w io.Writer
	h hash.Hash32
}

func newCRCWriter(w io.Writer) *crcWriter {
	return &crcWriter{w: w, h: crc32.New(crcTable)}
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.h.Write(p[:n])
	return n, err
}

// crcReader tees reads into a running CRC.
type crcReader struct {
	r io.Reader
	h hash.Hash32
}

func newCRCReader(r io.Reader) *crcReader {
	return &crcReader{r: r, h: crc32.New(crcTable)}
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.h.Write(p[:n])
	return n, err
}

func writeU64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeString(w io.Writer, s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("checkpoint: string too long: %d", len(s))
	}
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], uint16(len(s)))
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

// writeF32s writes v's length and then v (compress.WriteVector).
func writeF32s(w io.Writer, v []float32) error {
	if err := writeU64(w, uint64(len(v))); err != nil {
		return err
	}
	return compress.WriteVector(w, v)
}

func readU64(r io.Reader) (uint64, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func readString(r io.Reader) (string, error) {
	var buf [2]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return "", err
	}
	b := make([]byte, binary.LittleEndian.Uint16(buf[:]))
	if _, err := io.ReadFull(r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

// maxElems bounds decoded element counts (8G floats is certainly corrupt).
const maxElems = 1 << 33

func readF32s(r io.Reader) ([]float32, error) {
	n, err := readU64(r)
	if err != nil {
		return nil, err
	}
	if n > maxElems {
		return nil, fmt.Errorf("checkpoint: implausible vector length %d", n)
	}
	return compress.ReadVector[float32](r, n)
}

// Encode writes a full checkpoint record. On a little-endian host each
// vector goes to w straight from its own memory, so w must neither modify
// nor retain the slice passed to Write.
func (f *Full) Encode(w io.Writer) error {
	cw := newCRCWriter(w)
	if err := writeU32(cw, fullMagic); err != nil {
		return fmt.Errorf("checkpoint: encode full: %w", err)
	}
	if err := writeU32(cw, version); err != nil {
		return err
	}
	if err := writeU64(cw, uint64(f.Iter)); err != nil {
		return err
	}
	if err := writeF32s(cw, f.Params); err != nil {
		return err
	}
	// Optimizer state.
	if err := writeString(cw, f.Opt.Name); err != nil {
		return err
	}
	if err := writeU64(cw, uint64(f.Opt.Step)); err != nil {
		return err
	}
	scalarNames := make([]string, 0, len(f.Opt.Scalars))
	for k := range f.Opt.Scalars { //lint:allow determinism keys are sorted below; nothing is written in map order
		scalarNames = append(scalarNames, k)
	}
	sort.Strings(scalarNames)
	if err := writeU32(cw, uint32(len(scalarNames))); err != nil {
		return err
	}
	for _, k := range scalarNames {
		if err := writeString(cw, k); err != nil {
			return err
		}
		if err := writeU64(cw, math.Float64bits(f.Opt.Scalars[k])); err != nil {
			return err
		}
	}
	slotNames := make([]string, 0, len(f.Opt.Slots))
	for k := range f.Opt.Slots { //lint:allow determinism keys are sorted below; nothing is written in map order
		slotNames = append(slotNames, k)
	}
	sort.Strings(slotNames)
	if err := writeU32(cw, uint32(len(slotNames))); err != nil {
		return err
	}
	for _, k := range slotNames {
		if err := writeString(cw, k); err != nil {
			return err
		}
		if err := writeF32s(cw, f.Opt.Slots[k]); err != nil {
			return err
		}
	}
	return writeU32(w, cw.h.Sum32())
}

// EncodeWith is Encode; its second argument is ignored.
//
// Deprecated: call Encode.
func (f *Full) EncodeWith(w io.Writer, _ any) error { return f.Encode(w) }

// DecodeFull reads a full checkpoint record and verifies its CRC.
func DecodeFull(r io.Reader) (*Full, error) {
	cr := newCRCReader(r)
	magic, err := readU32(cr)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode full header: %w", err)
	}
	if magic != fullMagic {
		return nil, fmt.Errorf("checkpoint: bad full-checkpoint magic %#x", magic)
	}
	ver, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", ver)
	}
	iter, err := readU64(cr)
	if err != nil {
		return nil, err
	}
	params, err := readF32s(cr)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode params: %w", err)
	}
	optName, err := readString(cr)
	if err != nil {
		return nil, err
	}
	step, err := readU64(cr)
	if err != nil {
		return nil, err
	}
	nScalars, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	if nScalars > 1<<16 {
		return nil, fmt.Errorf("checkpoint: implausible scalar count %d", nScalars)
	}
	scalars := make(map[string]float64, nScalars)
	for i := uint32(0); i < nScalars; i++ {
		k, err := readString(cr)
		if err != nil {
			return nil, err
		}
		bits, err := readU64(cr)
		if err != nil {
			return nil, err
		}
		scalars[k] = math.Float64frombits(bits)
	}
	nSlots, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	if nSlots > 1<<16 {
		return nil, fmt.Errorf("checkpoint: implausible slot count %d", nSlots)
	}
	slots := make(map[string][]float32, nSlots)
	for i := uint32(0); i < nSlots; i++ {
		k, err := readString(cr)
		if err != nil {
			return nil, err
		}
		v, err := readF32s(cr)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decode slot %q: %w", k, err)
		}
		slots[k] = v
	}
	sum := cr.h.Sum32()
	stored, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read full crc: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("checkpoint: full checkpoint crc mismatch: stored %#x, computed %#x", stored, sum)
	}
	return &Full{
		Iter:   int64(iter),
		Params: params,
		Opt:    optim.State{Name: optName, Step: int64(step), Scalars: scalars, Slots: slots},
	}, nil
}

// Encode writes a differential checkpoint record. On a little-endian host
// the payload's vectors go to w straight from their own memory, so w must
// neither modify nor retain the slice passed to Write.
func (d *Diff) Encode(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return err
	}
	cw := newCRCWriter(w)
	if err := writeU32(cw, diffMagic); err != nil {
		return fmt.Errorf("checkpoint: encode diff: %w", err)
	}
	if err := writeU32(cw, version); err != nil {
		return err
	}
	if _, err := cw.Write([]byte{byte(d.Kind)}); err != nil {
		return err
	}
	if err := writeU64(cw, uint64(d.FirstIter)); err != nil {
		return err
	}
	if err := writeU64(cw, uint64(d.LastIter)); err != nil {
		return err
	}
	if err := writeU32(cw, uint32(d.Count)); err != nil {
		return err
	}
	if err := d.Payload.Encode(cw); err != nil {
		return err
	}
	return writeU32(w, cw.h.Sum32())
}

// EncodeWith is Encode; its second argument is ignored.
//
// Deprecated: call Encode.
func (d *Diff) EncodeWith(w io.Writer, _ any) error { return d.Encode(w) }

// DecodeDiff reads a differential checkpoint record and verifies its CRC.
func DecodeDiff(r io.Reader) (*Diff, error) {
	cr := newCRCReader(r)
	magic, err := readU32(cr)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode diff header: %w", err)
	}
	if magic != diffMagic {
		return nil, fmt.Errorf("checkpoint: bad diff-checkpoint magic %#x", magic)
	}
	ver, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	if ver != version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d", ver)
	}
	var kind [1]byte
	if _, err := io.ReadFull(cr, kind[:]); err != nil {
		return nil, err
	}
	first, err := readU64(cr)
	if err != nil {
		return nil, err
	}
	last, err := readU64(cr)
	if err != nil {
		return nil, err
	}
	count, err := readU32(cr)
	if err != nil {
		return nil, err
	}
	payload, err := compress.Decode(cr)
	if err != nil {
		return nil, err
	}
	sum := cr.h.Sum32()
	stored, err := readU32(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read diff crc: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("checkpoint: diff checkpoint crc mismatch: stored %#x, computed %#x", stored, sum)
	}
	d := &Diff{
		Kind:      DiffKind(kind[0]),
		FirstIter: int64(first),
		LastIter:  int64(last),
		Count:     int32(count),
		Payload:   payload,
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// SaveFull persists a full checkpoint to the store under its canonical name
// and returns that name.
func SaveFull(s storage.Store, f *Full) (string, error) {
	name := FullName(f.Iter)
	w, err := s.Create(name)
	if err != nil {
		return "", err
	}
	if err := f.Encode(w); err != nil {
		_ = storage.AbortWriter(w) // encode failed; surface that error, not the abort's
		return "", err
	}
	return name, w.Close()
}

// LoadFull loads a full checkpoint by name.
func LoadFull(s storage.Store, name string) (*Full, error) {
	return load(s, name, DecodeFull)
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

// SaveDiff persists a differential checkpoint under its canonical name and
// returns that name.
func SaveDiff(s storage.Store, d *Diff) (string, error) {
	name := DiffName(d.FirstIter, d.LastIter)
	w, err := s.Create(name)
	if err != nil {
		return "", err
	}
	if err := d.Encode(w); err != nil {
		_ = storage.AbortWriter(w) // encode failed; surface that error, not the abort's
		return "", err
	}
	return name, w.Close()
}

// LoadDiff loads a differential checkpoint by name.
func LoadDiff(s storage.Store, name string) (*Diff, error) {
	return load(s, name, DecodeDiff)
}
