package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 core): the repo's one seeded stream, behind synthetic data,
// storage chaos decisions and retry jitter. It is not cryptographic. The
// zero value is a valid generator with seed 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Gamma is SplitMix64's state increment. The generator's i-th output
// (counting from 1) is Mix64(seed + i*Gamma), so a loop that keeps the
// state in a local counter produces the same stream as repeated Uint64
// calls without a store and reload through the RNG on every element.
const Gamma uint64 = 0x9e3779b97f4a7c15

// Mix64 is SplitMix64's output finalizer, the one definition of the
// generator's mixing: Uint64 returns Mix64 of the advanced state.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Unit32 maps 64 random bits to a uniform float32 in [0, 1): the top 24
// bits over 2^24, exact in float32.
func Unit32(z uint64) float32 {
	return float32(z>>40) / (1 << 24)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += Gamma
	return Mix64(r.state)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return Unit32(r.Uint64())
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Normal returns a standard normal sample via Box-Muller.
func (r *RNG) Normal() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Exp returns an exponential sample with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// FillUniform fills v with uniform values in [lo, hi): element i is
// lo + (hi-lo)·u for the i-th Float32 draw u, and r ends where len(v)
// Float32 calls would leave it, so consecutive fills continue one stream.
// The state stays in a local counter for the whole fill; the conversion
// rounds the product before the sum, so no GOAMD64 level fuses the two.
func (r *RNG) FillUniform(v Vector, lo, hi float32) {
	span := hi - lo
	s := r.state
	for i := range v {
		s += Gamma
		v[i] = lo + float32(span*Unit32(Mix64(s)))
	}
	r.state = s
}

// FillNormal fills v with normal samples of the given mean and stddev.
func (r *RNG) FillNormal(v Vector, mean, stddev float64) {
	for i := range v {
		v[i] = float32(mean + stddev*r.Normal())
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
