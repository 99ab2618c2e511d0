package checkpoint

import (
	"bytes"
	"testing"
	"testing/quick"

	"lowdiff/internal/compress"
	"lowdiff/internal/model"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
	"lowdiff/internal/timemodel"
)

func sampleFull(t *testing.T, n int, seed uint64) *Full {
	t.Helper()
	r := tensor.NewRNG(seed)
	params := tensor.New(n)
	r.FillUniform(params, -1, 1)
	a := optim.NewAdam(n, optim.AdamConfig{LR: 0.01})
	g := tensor.New(n)
	for i := 0; i < 3; i++ {
		r.FillUniform(g, -1, 1)
		if err := a.Step(params, g); err != nil {
			t.Fatal(err)
		}
	}
	return &Full{Iter: 3, Params: params, Opt: a.Snapshot()}
}

func sampleDiff(t *testing.T, n int, seed uint64) *Diff {
	t.Helper()
	r := tensor.NewRNG(seed)
	g := tensor.New(n)
	r.FillUniform(g, -1, 1)
	tk, _ := compress.NewTopK(0.1)
	c, err := tk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	return &Diff{Kind: KindGradient, FirstIter: 4, LastIter: 4, Count: 1, Payload: c}
}

func TestFullRoundTrip(t *testing.T) {
	f := sampleFull(t, 128, 1)
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFull(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != f.Iter {
		t.Fatalf("iter = %d, want %d", got.Iter, f.Iter)
	}
	if !tensor.Vector(got.Params).Equal(f.Params) {
		t.Fatal("params differ")
	}
	if got.Opt.Name != "adam" || got.Opt.Step != f.Opt.Step {
		t.Fatalf("opt header differs: %+v", got.Opt)
	}
	for k, v := range f.Opt.Scalars {
		if got.Opt.Scalars[k] != v {
			t.Fatalf("scalar %q = %v, want %v", k, got.Opt.Scalars[k], v)
		}
	}
	for k, v := range f.Opt.Slots {
		if !tensor.Vector(got.Opt.Slots[k]).Equal(v) {
			t.Fatalf("slot %q differs", k)
		}
	}
	// The decoded state must actually restore an optimizer.
	o, err := optim.FromState(got.Opt, 128)
	if err != nil {
		t.Fatal(err)
	}
	if o.StepCount() != 3 {
		t.Fatalf("restored step count %d", o.StepCount())
	}
}

func TestDiffRoundTrip(t *testing.T) {
	d := sampleDiff(t, 200, 2)
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDiff(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindGradient || got.FirstIter != 4 || got.LastIter != 4 || got.Count != 1 {
		t.Fatalf("header = %+v", got)
	}
	a, b := tensor.New(200), tensor.New(200)
	if err := d.Payload.Decompress(a); err != nil {
		t.Fatal(err)
	}
	if err := got.Payload.Decompress(b); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("payload differs after round trip")
	}
}

// The Exp. 7 size model is the encoder's, byte for byte: an Adam full
// checkpoint is timemodel.FullCheckpointBytes (3Ψ float32s) plus a framing
// header that does not depend on Ψ, and a sparse differential is 8 bytes
// per non-zero (int32 index + float32 value) plus a constant.
func TestEncodedSizesMatchSizeModel(t *testing.T) {
	// magic, version, iter, params length (4+4+8+8); the "adam" name and
	// step (2+4+8); scalars lr, beta1, beta2, eps (4 + 12+15+15+13); slots
	// m and v (4 + 11+11); CRC (4).
	const fullHeader = 24 + 14 + 59 + 26 + 4
	// magic, version, kind, first, last, count (4+4+1+8+8+4); the payload's
	// header for codec "topk" (4+2+1+4+4*8+4); CRC (4).
	const diffHeader = 29 + 47 + 4
	for _, name := range []string{"BERT-B", "GPT2-S", "GPT2-L"} {
		spec, err := model.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scaled := spec.Scaled(2000)
		n := scaled.NumParams()
		var buf bytes.Buffer
		if err := sampleFull(t, n, 1).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if got, want := int64(buf.Len()), int64(timemodel.FullCheckpointBytes(scaled))+fullHeader; got != want {
			t.Errorf("%s (Ψ=%d): full encodes to %d bytes, want %d", name, n, got, want)
		}
		buf.Reset()
		d := sampleDiff(t, n, 2)
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		nnz := int64(len(d.Payload.Idx))
		if got, want := int64(buf.Len()), 8*nnz+diffHeader; got != want {
			t.Errorf("%s: diff with %d non-zeros encodes to %d bytes, want %d", name, nnz, got, want)
		}
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	f := sampleFull(t, 64, 3)
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one byte in the middle of the params payload.
	for _, pos := range []int{20, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x01
		if _, err := DecodeFull(bytes.NewReader(bad)); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
	d := sampleDiff(t, 64, 4)
	buf.Reset()
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data = buf.Bytes()
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 0x10
	if _, err := DecodeDiff(bytes.NewReader(bad)); err == nil {
		t.Fatal("diff corruption not detected")
	}
}

func TestTruncationErrors(t *testing.T) {
	f := sampleFull(t, 32, 5)
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 11 {
		if _, err := DecodeFull(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestWrongMagicRejected(t *testing.T) {
	f := sampleFull(t, 8, 6)
	d := sampleDiff(t, 8, 7)
	var fb, db bytes.Buffer
	if err := f.Encode(&fb); err != nil {
		t.Fatal(err)
	}
	if err := d.Encode(&db); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFull(bytes.NewReader(db.Bytes())); err == nil {
		t.Fatal("full decoder accepted a diff record")
	}
	if _, err := DecodeDiff(bytes.NewReader(fb.Bytes())); err == nil {
		t.Fatal("diff decoder accepted a full record")
	}
}

func TestDiffValidate(t *testing.T) {
	good := sampleDiff(t, 16, 8)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Diff{
		{Kind: 9, FirstIter: 1, LastIter: 1, Count: 1, Payload: good.Payload},
		{Kind: KindGradient, FirstIter: 5, LastIter: 4, Count: 1, Payload: good.Payload},
		{Kind: KindGradient, FirstIter: 1, LastIter: 1, Count: 0, Payload: good.Payload},
		{Kind: KindGradient, FirstIter: 1, LastIter: 1, Count: 1, Payload: nil},
	}
	for i, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err == nil {
			t.Errorf("case %d: encode should refuse invalid diff", i)
		}
	}
}

func TestSaveLoadStore(t *testing.T) {
	s := storage.NewMem()
	f := sampleFull(t, 64, 9)
	name, err := SaveFull(s, f)
	if err != nil {
		t.Fatal(err)
	}
	if name != FullName(3) {
		t.Fatalf("name = %q", name)
	}
	got, err := LoadFull(s, name)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Vector(got.Params).Equal(f.Params) {
		t.Fatal("loaded params differ")
	}
	d := sampleDiff(t, 64, 10)
	dname, err := SaveDiff(s, d)
	if err != nil {
		t.Fatal(err)
	}
	if dname != DiffName(4, 4) {
		t.Fatalf("diff name = %q", dname)
	}
	if _, err := LoadDiff(s, dname); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFull(s, "full-000000099999.ckpt"); !storage.IsNotExist(err) {
		t.Fatalf("want not-exist, got %v", err)
	}
}

func TestParseName(t *testing.T) {
	e, err := ParseName(FullName(42))
	if err != nil || !e.IsFull || e.Iter != 42 {
		t.Fatalf("parse full: %+v, %v", e, err)
	}
	e, err = ParseName(DiffName(7, 9))
	if err != nil || e.IsFull || e.FirstIter != 7 || e.LastIter != 9 {
		t.Fatalf("parse diff: %+v, %v", e, err)
	}
	for _, bad := range []string{"x.ckpt", "full-abc.ckpt", "diff-9-7.ckpt", "diff-1.ckpt", "full-1"} {
		if _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%q): want error", bad)
		}
	}
}

func TestScanAndLatest(t *testing.T) {
	s := storage.NewMem()
	m, err := Scan(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.LatestFull(); ok {
		t.Fatal("empty store should have no latest full")
	}
	// Write checkpoints out of order plus an unrelated object.
	for _, iter := range []int64{20, 5, 10} {
		f := sampleFull(t, 8, uint64(iter))
		f.Iter = iter
		if _, err := SaveFull(s, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, rng := range [][2]int64{{21, 22}, {23, 25}, {11, 12}} {
		d := sampleDiff(t, 8, uint64(rng[0]))
		d.FirstIter, d.LastIter = rng[0], rng[1]
		d.Count = int32(rng[1] - rng[0] + 1)
		if _, err := SaveDiff(s, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := storage.WriteObject(s, "full-garbage", []byte("x")); err != nil {
		t.Fatal(err)
	}
	m, err = Scan(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fulls) != 3 || len(m.Diffs) != 3 {
		t.Fatalf("scan found %d fulls, %d diffs", len(m.Fulls), len(m.Diffs))
	}
	latest, ok := m.LatestFull()
	if !ok || latest.Iter != 20 {
		t.Fatalf("latest = %+v", latest)
	}
	chain := m.DiffsAfter(20)
	if len(chain) != 2 || chain[0].FirstIter != 21 || chain[1].LastIter != 25 {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestDiffsAfterStopsAtGap(t *testing.T) {
	m := &Manifest{Diffs: []Entry{
		{Name: "a", FirstIter: 11, LastIter: 11},
		{Name: "b", FirstIter: 12, LastIter: 14},
		{Name: "c", FirstIter: 16, LastIter: 16}, // gap: 15 missing
	}}
	chain := m.DiffsAfter(10)
	if len(chain) != 2 {
		t.Fatalf("chain across gap: %+v", chain)
	}
	if got := m.DiffsAfter(15); len(got) != 1 || got[0].Name != "c" {
		t.Fatalf("DiffsAfter(15) = %+v", got)
	}
	if got := m.DiffsAfter(16); len(got) != 0 {
		t.Fatalf("DiffsAfter(16) = %+v", got)
	}
}

func TestDiffsAfterRejectsStraddlingBatch(t *testing.T) {
	// A batch [9,12] straddles a full checkpoint at 10; it cannot be
	// partially applied, so the chain must be empty.
	m := &Manifest{Diffs: []Entry{{Name: "a", FirstIter: 9, LastIter: 12}}}
	if got := m.DiffsAfter(10); len(got) != 0 {
		t.Fatalf("straddling batch accepted: %+v", got)
	}
}

func TestGC(t *testing.T) {
	s := storage.NewMem()
	for _, iter := range []int64{5, 10} {
		f := sampleFull(t, 8, uint64(iter))
		f.Iter = iter
		if _, err := SaveFull(s, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, rng := range [][2]int64{{6, 6}, {7, 8}, {11, 11}} {
		d := sampleDiff(t, 8, uint64(rng[0]))
		d.FirstIter, d.LastIter = rng[0], rng[1]
		d.Count = int32(rng[1] - rng[0] + 1)
		if _, err := SaveDiff(s, d); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := Scan(s)
	freed, err := GC(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(freed) != 3 { // full-5, diff-6-6, diff-7-8
		t.Fatalf("freed %v", freed)
	}
	m, _ = Scan(s)
	if len(m.Fulls) != 1 || len(m.Diffs) != 1 {
		t.Fatalf("after GC: %d fulls, %d diffs", len(m.Fulls), len(m.Diffs))
	}
	if m.Diffs[0].FirstIter != 11 {
		t.Fatalf("surviving diff = %+v", m.Diffs[0])
	}
}

// Property: full checkpoints round trip for arbitrary sizes and optimizer
// types.
func TestFullRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		n := 1 + r.Intn(200)
		params := tensor.New(n)
		r.FillUniform(params, -1, 1)
		var o optim.Optimizer
		if seed%2 == 0 {
			o = optim.NewAdam(n, optim.AdamConfig{})
		} else {
			o = optim.NewSGD(n, optim.SGDConfig{Momentum: 0.9})
		}
		g := tensor.New(n)
		r.FillUniform(g, -1, 1)
		if o.Step(params, g) != nil {
			return false
		}
		full := &Full{Iter: int64(r.Intn(1000)), Params: params, Opt: o.Snapshot()}
		var buf bytes.Buffer
		if full.Encode(&buf) != nil {
			return false
		}
		got, err := DecodeFull(&buf)
		if err != nil {
			return false
		}
		if got.Iter != full.Iter || !tensor.Vector(got.Params).Equal(params) {
			return false
		}
		o2, err := optim.FromState(got.Opt, n)
		if err != nil {
			return false
		}
		// Same next step on both optimizers must agree bit-exactly.
		p1, p2 := tensor.Vector(params).Clone(), tensor.Vector(params).Clone()
		if o.Step(p1, g) != nil || o2.Step(p2, g) != nil {
			return false
		}
		return p1.Equal(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
