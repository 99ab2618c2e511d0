package checkpoint

import (
	"bytes"
	"testing"

	"lowdiff/internal/compress"
	"lowdiff/internal/optim"
	"lowdiff/internal/tensor"
)

// FuzzDecodeFull hardens the full-checkpoint decoder against arbitrary
// input: no panics, no huge allocations, CRC catches mutations.
func FuzzDecodeFull(f *testing.F) {
	params := tensor.New(16)
	tensor.NewRNG(1).FillUniform(params, -1, 1)
	a := optim.NewAdam(16, optim.AdamConfig{})
	_ = a.Step(params, params.Clone())
	full := &Full{Iter: 7, Params: params, Opt: a.Snapshot()}
	var buf bytes.Buffer
	if err := full.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x46, 0x44, 0x4c, 1, 0, 0, 0})
	// The slice decoder's boundaries: a valid record whose one vector runs an
	// element past a read slice, and short streams claiming lengths around the
	// slice, around the whole-allocation threshold, and the maximum.
	var past bytes.Buffer
	if err := ruleFull(f, "sgd", sliceElems+1).Encode(&past); err != nil {
		f.Fatal(err)
	}
	f.Add(past.Bytes())
	for _, claim := range boundaryClaims {
		f.Add(claimLength(buf.Bytes(), fullParamsLen, claim))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFull(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that decodes must re-encode and decode identically.
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeFull(&out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again.Iter != got.Iter || len(again.Params) != len(got.Params) {
			t.Fatal("round trip changed the record")
		}
	})
}

// FuzzDecodeDiff hardens the differential decoder the same way.
func FuzzDecodeDiff(f *testing.F) {
	g := tensor.New(32)
	tensor.NewRNG(2).FillUniform(g, -1, 1)
	tk, _ := compress.NewTopK(0.2)
	c, err := tk.Compress(g)
	if err != nil {
		f.Fatal(err)
	}
	d := &Diff{Kind: KindGradient, FirstIter: 3, LastIter: 5, Count: 3, Payload: c}
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	// The slice decoder's boundaries, as in FuzzDecodeFull.
	dense := tensor.New(sliceElems + 1)
	tensor.NewRNG(3).FillUniform(dense, -1, 1)
	var past bytes.Buffer
	d = &Diff{Kind: KindStateDelta, FirstIter: 3, LastIter: 3, Count: 1, Payload: &compress.Compressed{Codec: "identity", N: len(dense), Vals: dense}}
	if err := d.Encode(&past); err != nil {
		f.Fatal(err)
	}
	f.Add(past.Bytes())
	for _, claim := range boundaryClaims {
		f.Add(claimLength(buf.Bytes(), diffIdxLen, claim))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeDiff(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoder returned invalid diff: %v", err)
		}
		var out bytes.Buffer
		if err := got.Encode(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if _, err := DecodeDiff(&out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}
