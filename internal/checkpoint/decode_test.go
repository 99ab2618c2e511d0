package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"lowdiff/internal/compress"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

// The slice decoder's constants (compress.ReadVector), in float32 elements:
// it reads sliceElems at a time and allocates a result whole up to wholeElems.
// decodeBound is what a corrupt length may cost before the stream ends
// (DESIGN.md §13): 8 MiB of result and change.
const (
	sliceElems  = 1 << 18
	wholeElems  = 2 << 20
	decodeBound = 8<<20 + 64<<10
)

// oracleReadF32s and oracleDecodeFull are the full-checkpoint decoder as it
// was before the slice decoder, kept as the reference: each vector staged
// whole through a regrown 4 MiB buffer, then converted into a second slice,
// and every field read on its own.
func oracleReadF32s(r io.Reader) ([]float32, error) {
	var n uint64
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	const chunk = 4 << 20
	buf := make([]byte, 0, min(4*n, chunk))
	for uint64(len(buf)) < 4*n {
		step := min(4*n-uint64(len(buf)), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

func oracleReadString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	b := make([]byte, n)
	_, err := io.ReadFull(r, b)
	return string(b), err
}

func oracleDecodeFull(r io.Reader) (*Full, error) {
	cr := newCRCReader(r)
	le := binary.LittleEndian
	var hdr [16]byte // magic, version, iteration
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return nil, err
	}
	f := &Full{Iter: int64(le.Uint64(hdr[8:]))}
	var err error
	if f.Params, err = oracleReadF32s(cr); err != nil {
		return nil, err
	}
	if f.Opt.Name, err = oracleReadString(cr); err != nil {
		return nil, err
	}
	var nScalars, nSlots uint32
	if err := binary.Read(cr, le, &f.Opt.Step); err != nil {
		return nil, err
	}
	if err := binary.Read(cr, le, &nScalars); err != nil {
		return nil, err
	}
	f.Opt.Scalars = make(map[string]float64, nScalars)
	for i := uint32(0); i < nScalars; i++ {
		k, err := oracleReadString(cr)
		if err != nil {
			return nil, err
		}
		var v float64
		if err := binary.Read(cr, le, &v); err != nil {
			return nil, err
		}
		f.Opt.Scalars[k] = v
	}
	if err := binary.Read(cr, le, &nSlots); err != nil {
		return nil, err
	}
	f.Opt.Slots = make(map[string][]float32, nSlots)
	for i := uint32(0); i < nSlots; i++ {
		k, err := oracleReadString(cr)
		if err != nil {
			return nil, err
		}
		if f.Opt.Slots[k], err = oracleReadF32s(cr); err != nil {
			return nil, err
		}
	}
	sum := cr.Sum32()
	var stored uint32
	if err := binary.Read(r, le, &stored); err != nil || stored != sum {
		return nil, fmt.Errorf("oracle: crc %#x, computed %#x: %v", stored, sum, err)
	}
	return f, nil
}

// boundaryLengths are vector lengths around one read slice; pastWhole is one
// beyond the whole-allocation threshold, where the result doubles while it is
// read (tried on the cheapest fixture of each test: internal/compress covers
// the vectors themselves).
var boundaryLengths = []int{0, 1, sliceElems - 1, sliceElems, sliceElems + 1, 3*sliceElems + 17}

const pastWhole = wholeElems + sliceElems + 5

// ruleFull is a full checkpoint of n parameters under the named rule, its
// optimizer state live (one step taken, so no slot is all zero).
func ruleFull(t testing.TB, rule string, n int) *Full {
	t.Helper()
	var o optim.Optimizer
	switch rule {
	case "adam":
		o = optim.NewAdam(n, optim.AdamConfig{LR: 0.01})
	case "sgd":
		o = optim.NewSGD(n, optim.SGDConfig{LR: 0.05})
	default:
		o = optim.NewSGD(n, optim.SGDConfig{LR: 0.05, Momentum: 0.9})
	}
	r := tensor.NewRNG(uint64(n) + 3)
	params, g := tensor.New(n), tensor.New(n)
	r.FillUniform(params, -1, 1)
	r.FillUniform(g, -1, 1)
	if err := o.Step(params, g); err != nil {
		t.Fatal(err)
	}
	return &Full{Iter: 9, Params: params, Opt: o.Snapshot()}
}

// sameFull is reflect.DeepEqual for fulls without NaNs, with the vectors
// compared as slices (reflection walks them an element at a time).
func sameFull(a, b *Full) bool {
	if a.Iter != b.Iter || !slices.Equal(a.Params, b.Params) || a.Opt.Name != b.Opt.Name || a.Opt.Step != b.Opt.Step ||
		!reflect.DeepEqual(a.Opt.Scalars, b.Opt.Scalars) || len(a.Opt.Slots) != len(b.Opt.Slots) {
		return false
	}
	for k, v := range a.Opt.Slots {
		if w, ok := b.Opt.Slots[k]; !ok || v == nil || w == nil || !slices.Equal(v, w) {
			return false
		}
	}
	return true
}

func sameDiff(a, b *Diff) bool {
	p, q := a.Payload, b.Payload
	return a.Kind == b.Kind && a.FirstIter == b.FirstIter && a.LastIter == b.LastIter && a.Count == b.Count &&
		p.Codec == q.Codec && p.N == q.N && slices.Equal(p.Idx, q.Idx) && slices.Equal(p.Vals, q.Vals)
}

// (a) Fulls of every rule encode to the same record on both vector paths,
// and decode, on both paths, at the slice and threshold boundaries, to exactly what the two-copy decoder returned.
func TestDecodeFullMatchesTwoCopyOracle(t *testing.T) {
	for _, rule := range []string{"adam", "sgd", "sgd-momentum"} {
		lengths := boundaryLengths
		if rule == "sgd" {
			lengths = append([]int{pastWhole}, lengths...)
		}
		for _, n := range lengths {
			f := ruleFull(t, rule, n)
			var host []byte
			eachVectorPath(func(path string) {
				var rec bytes.Buffer
				if err := f.Encode(&rec); err != nil {
					t.Fatal(err)
				}
				if host == nil {
					host = rec.Bytes()
				} else if !bytes.Equal(rec.Bytes(), host) {
					t.Fatalf("%s path: %s length %d: record differs from the host path's", path, rule, n)
				}
				want, err := oracleDecodeFull(bytes.NewReader(rec.Bytes()))
				if err != nil {
					t.Fatalf("%s path: %s length %d: %v", path, rule, n, err)
				}
				got, err := DecodeFull(bytes.NewReader(rec.Bytes()))
				if err != nil {
					t.Fatalf("%s path: %s length %d: %v", path, rule, n, err)
				}
				if !sameFull(got, want) {
					t.Fatalf("%s path: %s length %d: decoded full differs from the two-copy decoder's", path, rule, n)
				}
			})
		}
	}
}

// (a, continued) Differentials — sparse and dense payloads at the
// same boundaries — decode to the record that was encoded. The payload
// decoder has its own two-copy oracle in internal/compress.
func TestDecodeDiffAtSliceBoundaries(t *testing.T) {
	for _, family := range []string{"sparse", "dense"} {
		lengths := boundaryLengths[1:]
		if family == "dense" {
			lengths = append([]int{pastWhole}, lengths...)
		}
		for _, n := range lengths {
			r := tensor.NewRNG(uint64(n))
			vals := tensor.New(n)
			r.FillUniform(vals, -1, 1)
			var c *compress.Compressed
			switch family {
			case "sparse":
				c = &compress.Compressed{Codec: "topk", N: 2 * n, Idx: make([]int32, n), Vals: vals}
				for i := range c.Idx {
					c.Idx[i] = int32(2*i + r.Intn(2))
				}
			default: // dense
				c = &compress.Compressed{Codec: "identity", N: n, Vals: vals}
			}
			want := &Diff{Kind: KindStateDelta, FirstIter: 3, LastIter: 6, Count: 4, Payload: c}
			var rec bytes.Buffer
			if err := want.Encode(&rec); err != nil {
				t.Fatal(err)
			}
			got, err := DecodeDiff(bytes.NewReader(rec.Bytes()))
			if err != nil {
				t.Fatalf("%s length %d: %v", family, n, err)
			}
			if !sameDiff(got, want) {
				t.Fatalf("%s length %d: decoded differential differs from the encoded one", family, n)
			}
		}
	}
}

// claimLength returns the head of rec with the u64 length field at off
// overwritten: a short stream whose length word lies.
func claimLength(rec []byte, off int, claim uint64) []byte {
	bad := append([]byte{}, rec[:min(len(rec), 100)]...)
	binary.LittleEndian.PutUint64(bad[off:], claim)
	return bad
}

// maxElems is the largest vector length a decode accepts (compress's bound).
const maxElems = 1 << 33

// boundaryClaims are the lengths a lying length word is tried at: around the
// read slice, around the whole-allocation threshold, and the largest accepted.
var boundaryClaims = []uint64{sliceElems - 1, sliceElems, sliceElems + 1, wholeElems, wholeElems + 1, maxElems}

const (
	fullParamsLen = 16             // magic, version and iteration precede the parameters' length
	diffIdxLen    = 29 + 7 + 4 + 8 // the diff header, then the payload's fixed header, codec "topk" and dense length
)

// (b) A length field that claims maxElems, or just more than is allocated
// whole, over a 100-byte stream fails at the end of the stream having
// allocated no more than the documented constant.
func TestCorruptLengthFailsAtEOFWithinBound(t *testing.T) {
	var full, diff bytes.Buffer
	if err := ruleFull(t, "adam", 64).Encode(&full); err != nil {
		t.Fatal(err)
	}
	if err := sampleDiff(t, 640, 1).Encode(&diff); err != nil {
		t.Fatal(err)
	}
	for _, claim := range []uint64{maxElems, wholeElems + 1} { // each allocates the most its branch can
		for what, decode := range map[string]func() error{
			"full": func() error {
				_, err := DecodeFull(bytes.NewReader(claimLength(full.Bytes(), fullParamsLen, claim)))
				return err
			},
			"diff": func() error {
				_, err := DecodeDiff(bytes.NewReader(claimLength(diff.Bytes(), diffIdxLen, claim)))
				return err
			},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s claiming %d elements: error %v, want io.ErrUnexpectedEOF", what, claim, err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > decodeBound {
				t.Fatalf("%s claiming %d elements over 100 bytes: allocated %d bytes, bound %d", what, claim, got, decodeBound)
			}
		}
	}
}

// A save whose encoding fails — a differential Validate rejects before the
// first byte, a full whose optimizer name cannot be framed after the
// parameters went out — returns that error and leaves the store as it was:
// nothing under the canonical name, nothing staged.
func TestRejectedSaveLeavesStoreUnchanged(t *testing.T) {
	dir := t.TempDir()
	file, err := storage.NewFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := storage.NewTiered(storage.NewMem(), 1<<20, 1<<19)
	if err != nil {
		t.Fatal(err)
	}
	badDiff := sampleDiff(t, 64, 1)
	badDiff.Count = 0
	badFull := sampleFull(t, 64, 2)
	badFull.Opt.Name = strings.Repeat("x", math.MaxUint16+1)
	for what, s := range map[string]storage.Store{"Mem": storage.NewMem(), "File": file, "Tiered": tiered} {
		if _, err := SaveDiff(s, badDiff); err == nil || !strings.Contains(err.Error(), "count 0 must be positive") {
			t.Fatalf("%s: SaveDiff of an invalid differential: %v", what, err)
		}
		if _, err := SaveFull(s, badFull); err == nil || !strings.Contains(err.Error(), "string too long") {
			t.Fatalf("%s: SaveFull with an unframeable optimizer name: %v", what, err)
		}
		if names, err := s.List(""); err != nil || len(names) != 0 {
			t.Fatalf("%s: store lists %v after two rejected saves (%v)", what, names, err)
		}
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("File: %d entries left in the directory (%v), first %v", len(left), err, left)
	}
}
