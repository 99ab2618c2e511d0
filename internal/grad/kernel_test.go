package grad

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"lowdiff/internal/allocgate"
	"lowdiff/internal/cpu"
	"lowdiff/internal/model"
	"lowdiff/internal/tensor"
)

// twoPassReference is the loop the oracle ran before the fused pass: the
// bowl gradient written first, then the noise added in a second pass, one
// RNG.Float32 call per element. Every kernel must match it bit for bit.
func twoPassReference(params, target tensor.Vector, noise float64, seed uint64, out tensor.Vector, off int) {
	for i := range out {
		out[i] = 2 * (params[off+i] - target[off+i])
	}
	if noise > 0 {
		r := tensor.NewRNG(seed)
		half := float32(noise)
		for i := range out {
			out[i] += half * (2*r.Float32() - 1)
		}
	}
}

// specials are the values the comparisons plant among the parameters and
// the target: signed zeros, infinities, NaNs with payloads of both signs,
// the smallest and largest denormals and the largest finite value.
var specials = []float32{
	float32(math.Copysign(0, -1)), 0,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa00002),
	math.Float32frombits(0x7f800003), // signalling
	math.Float32frombits(1), math.Float32frombits(0x807fffff),
	math.MaxFloat32, -math.MaxFloat32,
}

// withSpecials returns n uniform values with a special planted every
// stride elements; params and target use different strides, so the
// specials meet one another in many pairings.
func withSpecials(r *tensor.RNG, n, stride int) tensor.Vector {
	v := tensor.New(n)
	r.FillUniform(v, -2, 2)
	for i := 0; i < n; i += stride {
		v[i] = specials[(i/stride)%len(specials)]
	}
	return v
}

var (
	noises  = []float64{0, 0.05, 2.0}
	workers = []int{0, 1, 2}
	iters   = []int{0, math.MaxInt32 - 1}
)

// The Go loop and the dispatched kernel (the AVX2 body plus the Go tail
// where the CPU has it) equal the two-pass loop bit for bit at every length
// 0–67, from every start offset 0–7, for every noise, worker and iteration.
func TestKernelsMatchTwoPass(t *testing.T) {
	r := tensor.NewRNG(3)
	const maxLen, maxOff = 67, 7
	params := withSpecials(r, maxLen+maxOff, 3)
	target := withSpecials(r, maxLen+maxOff, 5)
	o := &Oracle{seed: 9}
	want := tensor.New(maxLen)
	got := tensor.New(maxLen + maxOff)
	for _, noise := range noises {
		for _, w := range workers {
			for _, it := range iters {
				for n := 0; n <= maxLen; n++ {
					for off := 0; off <= maxOff; off++ {
						seed := o.noiseSeed(w, it, n)
						twoPassReference(params, target, noise, seed, want[:n], off)
						out := got[off : off+n]
						check := func(name string) {
							if !out.Identical(want[:n]) {
								t.Fatalf("%s: noise %v, worker %d, iter %d, n %d, offset %d: differs from the two-pass loop\ngot  %v\nwant %v",
									name, noise, w, it, n, off, out, want[:n])
							}
						}
						if noise == 0 {
							(&Oracle{target: target, offsets: []int{off}}).layerInto(params, w, it, 0, out)
							check("layerInto")
							continue
						}
						gradGo(out, params[off:off+n], target[off:off+n], float32(noise), seed)
						check("gradGo")
						noisyGrad(out, params[off:off+n], target[off:off+n], float32(noise), seed)
						check("noisyGrad")
					}
				}
			}
		}
	}
}

// At the workload's shape every one of the 74 layers, through Local and
// through LayerGrad, equals the two-pass loop, specials included.
func TestOracleMatchesTwoPassAtWorkloadShape(t *testing.T) {
	spec := workloadSpec
	if len(spec.Layers) != 74 {
		t.Fatalf("workload spec has %d layers, want 74", len(spec.Layers))
	}
	r := tensor.NewRNG(4)
	params := withSpecials(r, spec.NumParams(), 1013)
	want := tensor.New(spec.NumParams())
	got := tensor.New(spec.NumParams())
	for _, noise := range noises {
		o, err := New(spec, 5, noise)
		if err != nil {
			t.Fatal(err)
		}
		copy(o.target, withSpecials(r, spec.NumParams(), 1019))
		for _, w := range workers {
			for _, it := range iters {
				for l, layer := range spec.Layers {
					off := o.offsets[l]
					twoPassReference(params, o.target, noise, o.noiseSeed(w, it, l), want[off:off+layer.Size], off)
				}
				if err := o.Local(params, w, it, got); err != nil {
					t.Fatal(err)
				}
				if !got.Identical(want) {
					t.Fatalf("Local: noise %v, worker %d, iter %d: differs from the two-pass loop", noise, w, it)
				}
				for _, l := range o.BackwardOrder() {
					off, size := o.offsets[l], spec.Layers[l].Size
					out := tensor.New(size)
					if err := o.LayerGrad(params, w, it, l, out); err != nil {
						t.Fatal(err)
					}
					if !out.Identical(want[off : off+size]) {
						t.Fatalf("LayerGrad: noise %v, worker %d, iter %d, layer %d: differs from the two-pass loop", noise, w, it, l)
					}
				}
			}
		}
	}
}

func vectorSHA256(v tensor.Vector) string {
	h := sha256.New()
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// One whole gradient at the workload's shape, pinned: the hash was taken
// from the two-pass loop, so a kernel that drifts from it fails here even
// where the reference above would drift with it.
func TestLocalSHA256(t *testing.T) {
	o, err := New(workloadSpec, 1, workloadNoise)
	if err != nil {
		t.Fatal(err)
	}
	p := model.NewParams(workloadSpec)
	p.InitUniform(2)
	g := tensor.New(workloadSpec.NumParams())
	if err := o.Local(p.Flat, 1, 7, g); err != nil {
		t.Fatal(err)
	}
	const want = "d496aa5f853348eb25d06d35b0b90fcc261f97d8c2b6e04076aa5262e77553d1"
	if got := vectorSHA256(g); got != want {
		t.Fatalf("Local's SHA-256 = %s, want %s", got, want)
	}
}

// TestOracleAllocs holds the backward pass to no allocation: one Local and
// a LayerGrad sweep over all 74 layers, as a LowDiff+ step runs it.
func TestOracleAllocs(t *testing.T) {
	o, err := New(workloadSpec, 1, workloadNoise)
	if err != nil {
		t.Fatal(err)
	}
	p := model.NewParams(workloadSpec)
	p.InitUniform(2)
	g := tensor.New(workloadSpec.NumParams())
	t.Run("local", func(t *testing.T) {
		allocgate.Check(t, 20, 0, 0, func() {
			if err := o.Local(p.Flat, 1, 3, g); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("layer_sweep", func(t *testing.T) {
		allocgate.Check(t, 20, 0, 0, func() {
			for _, l := range o.BackwardOrder() {
				off := o.offsets[l]
				if err := o.LayerGrad(p.Flat, 1, 3, l, g[off:off+workloadSpec.Layers[l].Size]); err != nil {
					t.Fatal(err)
				}
			}
		})
	})
}

// FuzzOracleLayer holds the AVX2 body to the Go loop on arbitrary values,
// lengths, start offsets, seeds and finite half-widths. (With an infinite
// half-width a draw of exactly one half is NaN, and where the gradient is
// NaN too the two may return different payloads.)
func FuzzOracleLayer(f *testing.F) {
	if !cpu.AVX2 {
		f.Skip("no AVX2 on this CPU: noisyGrad runs the Go loop alone")
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 67} {
		b := make([]byte, 8*n+3)
		for i := range b {
			b[i] = byte(i*37 + n)
		}
		f.Add(b, uint64(n), float32(2), uint8(n))
	}
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0xc0, 0xff, 1, 0, 0, 0, 0, 0, 0, 0x80}, uint64(1), float32(0.05), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, half float32, off uint8) {
		if !(half > 0) || math.IsInf(float64(half), 1) {
			t.Skip("the oracle adds noise only for a finite half-width above 0")
		}
		n := len(data) / 8
		o := int(off % 8)
		p, tg := tensor.New(n+o), tensor.New(n+o)
		for i := 0; i < n; i++ {
			p[o+i] = math.Float32frombits(binary.LittleEndian.Uint32(data[8*i:]))
			tg[o+i] = math.Float32frombits(binary.LittleEndian.Uint32(data[8*i+4:]))
		}
		want, got := tensor.New(n), tensor.New(n+o)
		gradGo(want, p[o:], tg[o:], half, seed)
		noisyGrad(got[o:], p[o:], tg[o:], half, seed)
		if !got[o:].Identical(want) {
			t.Fatalf("n %d, offset %d, half %v, seed %#x: AVX2 body differs from the Go loop\ngot  %v\nwant %v", n, o, half, seed, got[o:], want)
		}
	})
}
