package checkpoint

import (
	"bytes"
	"testing"

	"lowdiff/internal/compress"
	"lowdiff/internal/optim"
	"lowdiff/internal/tensor"
)

// Encode and decode must produce byte-identical records and bit-identical
// state on both vector paths.
func TestEncodeDecodeBitExactOnBothVectorPaths(t *testing.T) {
	r := tensor.NewRNG(11)
	params := tensor.New(5000)
	r.FillUniform(params, -2, 2)
	m := tensor.New(5000)
	r.FillUniform(m, -1, 1)
	f := &Full{
		Iter:   42,
		Params: params,
		Opt: optim.State{
			Name:    "adam",
			Step:    42,
			Scalars: map[string]float64{"lr": 0.01, "beta1": 0.9},
			Slots:   map[string][]float32{"m": m, "v": append([]float32(nil), m...)},
		},
	}
	g := tensor.New(5000)
	r.FillUniform(g, -1, 1)
	tk, _ := compress.NewTopK(0.02)
	payload, err := tk.Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	d := &Diff{Kind: KindGradient, FirstIter: 7, LastIter: 9, Count: 3, Payload: payload}

	var wantFull, wantDiff bytes.Buffer
	if err := f.Encode(&wantFull); err != nil {
		t.Fatal(err)
	}
	if err := d.Encode(&wantDiff); err != nil {
		t.Fatal(err)
	}
	eachVectorPath(func(path string) {
		var gotFull, gotDiff bytes.Buffer
		if err := f.Encode(&gotFull); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantFull.Bytes(), gotFull.Bytes()) {
			t.Fatalf("%s path: full record bytes differ", path)
		}
		if err := d.Encode(&gotDiff); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantDiff.Bytes(), gotDiff.Bytes()) {
			t.Fatalf("%s path: diff record bytes differ", path)
		}
		df, err := DecodeFull(bytes.NewReader(gotFull.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !df.Params.Equal(f.Params) || !tensor.Vector(df.Opt.Slots["m"]).Equal(m) {
			t.Fatalf("%s path: decoded full state differs", path)
		}
		dd, err := DecodeDiff(bytes.NewReader(gotDiff.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if dd.FirstIter != 7 || dd.LastIter != 9 || len(dd.Payload.Idx) != len(payload.Idx) {
			t.Fatalf("%s path: decoded diff differs", path)
		}
		for i := range payload.Idx {
			if dd.Payload.Idx[i] != payload.Idx[i] || dd.Payload.Vals[i] != payload.Vals[i] {
				t.Fatalf("%s path: decoded payload entry %d differs", path, i)
			}
		}
	})
}
