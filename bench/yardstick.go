package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// The yardstick is a fixed piece of work, owned by the harness and never by
// the program under test, whose speed tells how fast the host is right now.
//
// It exists because the reference box is a small virtual machine with noisy
// neighbours: for minutes at a time the same code runs 1.3x, and sometimes
// 2.6x, slower, and then every run of a workload reads that much higher. No
// statistic over one run's samples removes that. The yardstick does: it is
// sampled beside every timed sample, and the sample is scaled by
// yardRefMs / yardstick-now. Measured on this host, that takes the spread of
// a 2-worker step between 10 s windows from 27% to 3%, and of a serial
// recovery from 28% to 6%. A time reported in ms is therefore "ms on a quiet
// reference box"; the raw medians and the yardstick itself are printed beside
// it. Ratios of paired samples need no scaling and get none.
//
// To track a training step it has the shape of one: two goroutines in lock
// step, each streaming through arrays of the model's size — a gradient-like
// pass, a key build and two partition passes like Top-K's quickselect, a
// barrier, an Adam-like update. A slow or preempted core stalls it at the
// barrier exactly as it stalls the engine's ranks.
type yardstick struct {
	lanes   [2]*lane
	samples []yardSample
}

type yardSample struct {
	at time.Time
	ms float64 // one lock-step iteration
}

// yardRefMs is the yardstick's iteration time on the quiet reference box. It
// only fixes the unit: both sides of any comparison are scaled by it alike.
const yardRefMs = 19.0

type lane struct {
	p, t, g, m, v []float32
	keys          []uint64
}

func newYardstick(n int) *yardstick {
	y := &yardstick{}
	for l := range y.lanes {
		ln := &lane{
			p: make([]float32, n), t: make([]float32, n), g: make([]float32, n),
			m: make([]float32, n), v: make([]float32, n), keys: make([]uint64, n),
		}
		x := uint32(12345 + l)
		for i := range ln.p {
			x = x*1664525 + 1013904223
			ln.p[i] = float32(x>>8) / (1 << 24)
			x = x*1664525 + 1013904223
			ln.t[i] = float32(x>>8) / (1 << 24)
			ln.v[i] = 1
		}
		y.lanes[l] = ln
	}
	return y
}

func (ln *lane) gradientAndSelect(seed uint32) {
	x := seed
	for i := range ln.g {
		x = x*1664525 + 1013904223
		ln.g[i] = 2*(ln.p[i]-ln.t[i]) + float32(x>>8)/(1<<24)
	}
	for i, g := range ln.g {
		ln.keys[i] = uint64(math.Float32bits(g)&^(1<<31))<<32 | uint64(^uint32(i))
	}
	for pass := 0; pass < 2; pass++ {
		pivot := ln.keys[len(ln.keys)/2+pass]
		k := 0
		for j := range ln.keys {
			if ln.keys[j] > pivot {
				ln.keys[k], ln.keys[j] = ln.keys[j], ln.keys[k]
				k++
			}
		}
	}
}

// update keeps m and v well away from zero: denormals would slow it tenfold.
func (ln *lane) update() {
	for i, g := range ln.g {
		ln.m[i] = 0.9*ln.m[i] + 0.1*g
		ln.v[i] = 0.999*ln.v[i] + 0.001*(g*g+1)
		ln.p[i] -= 1e-6 * ln.m[i] / (float32(math.Sqrt(float64(ln.v[i]))) + 1e-8)
	}
}

const yardIters = 2 // lock-step iterations per sample

// sample measures the host's speed now.
func (y *yardstick) sample() {
	t0 := time.Now()
	for it := 0; it < yardIters; it++ {
		seed := uint32(len(y.samples)*yardIters + it + 1)
		y.lockstep(func(ln *lane) { ln.gradientAndSelect(seed) })
		y.lockstep((*lane).update)
	}
	y.samples = append(y.samples, yardSample{at: t0, ms: ms(time.Since(t0)) / yardIters})
}

// lockstep runs one phase on every lane at once and waits for all of them.
func (y *yardstick) lockstep(phase func(*lane)) {
	var wg sync.WaitGroup
	for _, ln := range y.lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			phase(ln)
		}(ln)
	}
	wg.Wait()
}

// scale returns the factor that turns a duration measured at the given time
// into reference-box time: yardRefMs over the median of the three samples
// nearest in time (one sample alone carries a few percent of noise).
func (y *yardstick) scale(at time.Time) float64 {
	n := len(y.samples)
	if n == 0 {
		return 1
	}
	// Samples are in time order: take the one before `at` and the two from
	// `at` on, shifted to stay inside the slice.
	i := sort.Search(n, func(i int) bool { return !y.samples[i].at.Before(at) })
	lo := max(0, min(i-1, n-3))
	near := make([]float64, 0, 3)
	for _, s := range y.samples[lo:min(n, lo+3)] {
		near = append(near, s.ms)
	}
	return yardRefMs / median(near)
}

// values returns every sample, for the report.
func (y *yardstick) values() []float64 {
	out := make([]float64, len(y.samples))
	for i, s := range y.samples {
		out[i] = s.ms
	}
	return out
}
