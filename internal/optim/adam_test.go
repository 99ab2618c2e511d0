package optim

import (
	"encoding/binary"
	"math"
	"testing"

	"lowdiff/internal/tensor"
)

// specials are the values the packed Adam kernel must round exactly as the
// Go loop does: signed zeros, denormals, the largest finite values and the
// infinities, next to ordinary magnitudes.
var specials = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1, 1e-20, -3.5e-7,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -2e-39,
	math.MaxFloat32, -math.MaxFloat32, 3e38, -1e30,
	float32(math.Inf(1)), float32(math.Inf(-1)),
}

// coefs are step coefficients of real Adam configurations: the first step
// (largest bias correction), a later one, and a large learning rate.
func coefs() []adamCoef {
	var ks []adamCoef
	for _, cfg := range []AdamConfig{{}, {LR: 0.5, Beta1: 0.5, Beta2: 0.75, Eps: 1e-3}} {
		a := NewAdam(0, cfg)
		for step := 1; step <= 7; step++ {
			k := a.next()
			if step == 1 || step == 7 {
				ks = append(ks, k)
			}
		}
	}
	return ks
}

// at returns a length-n slice starting off elements into a fresh backing
// array, so the packed loads and stores run unaligned for off 1–7.
func at(off, n int) []float32 { return make([]float32, off+n)[off:] }

// checkKernel runs adamRange and the pure-Go adamGo on copies of the same
// inputs and fails on the first element whose bits differ. A NaN must stay
// a NaN; a NaN whose payload differs is reported, not failed (Go does not
// specify which operand's payload an operation propagates).
func checkKernel(t *testing.T, what string, off int, p, m, v, g []float32, k adamCoef) {
	t.Helper()
	n := len(g)
	var got, want [3][]float32
	for i, src := range [][]float32{p, m, v} {
		got[i], want[i] = at(off, n), at(off, n)
		copy(got[i], src)
		copy(want[i], src)
	}
	gg := at(off, n)
	copy(gg, g)
	adamRange(got[0], got[1], got[2], gg, k)
	adamGo(want[0], want[1], want[2], g, k)
	for s, name := range []string{"p", "m", "v"} {
		for i := range n {
			a, b := got[s][i], want[s][i]
			if math.Float32bits(a) == math.Float32bits(b) {
				continue
			}
			if a != a && b != b {
				t.Logf("%s: %s[%d] NaN payload %#x, Go loop %#x", what, name, i, math.Float32bits(a), math.Float32bits(b))
				continue
			}
			t.Fatalf("%s: %s[%d] = %v (%#x), Go loop %v (%#x); inputs p %v m %v v %v g %v",
				what, name, i, a, math.Float32bits(a), b, math.Float32bits(b), p[i], m[i], v[i], g[i])
		}
	}
	if !tensor.Vector(gg).Identical(g) {
		t.Fatalf("%s: the kernel wrote its gradient", what)
	}
}

// The packed body plus the Go tail is the Go loop, bit for bit, at every
// length around the eight-lane boundaries and at every misalignment, over
// random values and over every special value in every operand.
func TestAdamKernelMatchesGoLoop(t *testing.T) {
	r := tensor.NewRNG(17)
	for _, k := range coefs() {
		for n := 0; n <= 67; n++ {
			for off := 0; off < 8; off++ {
				in := [4][]float32{}
				for i := range in {
					in[i] = randVec(r, n)
				}
				for i := range n {
					in[3][i] *= 10                 // gradients of every sign and magnitude
					in[2][i] = in[2][i] * in[2][i] // a second moment is a square
				}
				// Spread the specials over the operands, a different one
				// per element and operand.
				for i := range n {
					if (i+off)%3 == 0 {
						in[i%4][i] = specials[(i*7+n)%len(specials)]
					}
				}
				checkKernel(t, "random", off, in[0], in[1], in[2], in[3], k)
			}
		}
		// Every special in every operand, against ordinary values elsewhere.
		for _, x := range specials {
			for op := 0; op < 4; op++ {
				const n = 17 // two packed blocks and a tail element
				ordinary := []float32{0.5, -0.25, 2, 1e-3, -7, 0.125, 3, -1, 0.75}
				moments := []float32{0.25, 1e-6, 4, 0, 9, 1e-2, 0.5, 2, 1}
				in := [4][]float32{}
				for i := range in {
					src := ordinary
					if i == 2 {
						src = moments
					}
					in[i] = at(0, n)
					for e := range n {
						in[i][e] = src[e%len(src)]
					}
				}
				for i := 0; i < n; i++ {
					in[op][i] = x
				}
				checkKernel(t, "special", 1, in[0], in[1], in[2], in[3], k)
			}
		}
	}
}

// A NaN anywhere in an element's inputs gives a NaN in what the rule
// computes from it, in the packed lanes as in the Go tail; two NaNs of
// different payloads in two operands show whether the kernels pick the same
// payload (checkKernel logs it where they do not).
func TestAdamKernelPropagatesNaN(t *testing.T) {
	nan := float32(math.NaN())
	k := coefs()[0]
	for op := 0; op < 4; op++ {
		for n := 1; n <= 17; n++ {
			in := [4][]float32{at(0, n), at(0, n), at(0, n), at(0, n)}
			for i := range n {
				in[0][i], in[1][i], in[2][i], in[3][i] = 1, 0.5, 0.25, 0.1
			}
			in[op][n-1] = nan
			for other := op + 1; other < 4; other++ {
				in2 := in
				for i := range in2 {
					in2[i] = append([]float32(nil), in[i]...)
				}
				in2[op][n-1] = math.Float32frombits(0x7fc00001)
				in2[other][n-1] = math.Float32frombits(0xffc00002)
				checkKernel(t, "two nans", 0, in2[0], in2[1], in2[2], in2[3], k)
			}
			checkKernel(t, "nan", 0, in[0], in[1], in[2], in[3], k)
			p, m, v := append([]float32(nil), in[0]...), append([]float32(nil), in[1]...), append([]float32(nil), in[2]...)
			adamRange(p, m, v, in[3], k)
			if x := p[n-1]; x == x {
				t.Fatalf("NaN in operand %d at length %d: parameter %v", op, n, x)
			}
		}
	}
}

// FuzzAdamKernel feeds arbitrary bit patterns (each element is 16 bytes: p,
// m, v, g) at an arbitrary misalignment through both kernels.
func FuzzAdamKernel(f *testing.F) {
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 67} {
		raw := make([]byte, 16*n)
		for i := 0; i < len(raw); i += 4 {
			binary.LittleEndian.PutUint32(raw[i:], math.Float32bits(specials[(i/4)%len(specials)]))
		}
		f.Add(raw, uint8(n%8), uint8(n))
	}
	ks := coefs()
	f.Fuzz(func(t *testing.T, raw []byte, off, which uint8) {
		n := len(raw) / 16
		in := [4][]float32{}
		for i := range in {
			in[i] = at(0, n)
		}
		for e := range n {
			for i := range in {
				in[i][e] = math.Float32frombits(binary.LittleEndian.Uint32(raw[16*e+4*i:]))
			}
		}
		checkKernel(t, "fuzz", int(off%8), in[0], in[1], in[2], in[3], ks[int(which)%len(ks)])
	})
}
