package optim

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"lowdiff/internal/tensor"
)

func benchVecs(n int) (params, grad tensor.Vector) {
	r := tensor.NewRNG(1)
	params = tensor.New(n)
	grad = tensor.New(n)
	r.FillUniform(params, -1, 1)
	r.FillUniform(grad, -1, 1)
	return
}

func BenchmarkAdamStep(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			params, grad := benchVecs(n)
			a := NewAdam(n, AdamConfig{})
			b.SetBytes(int64(n * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Step(params, grad); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAdamStepSparse is the training apply at the shape the benchmark
// trains: one sparse Adam step over replayN parameters with a synchronized
// Top-K union of 23,000 sorted indices (two workers' parts of 11,700 at
// ρ = 0.01, a few shared). replicas=2 has two replicas step their own
// state at once, as the two ranks of a DP job do.
func BenchmarkAdamStepSparse(b *testing.B) {
	g := sortedGrad(tensor.NewRNG(2), replayN, 23_000)
	for _, replicas := range []int{1, 2} {
		b.Run(fmt.Sprintf("replicas=%d", replicas), func(b *testing.B) {
			opts := make([]*Adam, replicas)
			params := make([]tensor.Vector, replicas)
			for i := range opts {
				opts[i] = NewAdam(replayN, AdamConfig{})
				params[i], _ = benchVecs(replayN)
			}
			b.SetBytes(int64(replicas * replayN * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, replicas)
				for w := range opts {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[w] = opts[w].StepSparse(params[w], g.Idx, g.Vals)
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSGDStep(b *testing.B) {
	const n = 1 << 18
	params, grad := benchVecs(n)
	s := NewSGD(n, SGDConfig{Momentum: 0.9})
	b.SetBytes(int64(n * 4))
	for i := 0; i < b.N; i++ {
		if err := s.Step(params, grad); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdamSnapshot(b *testing.B) {
	const n = 1 << 18
	params, grad := benchVecs(n)
	a := NewAdam(n, AdamConfig{})
	if err := a.Step(params, grad); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n * 8)) // two moment vectors
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Snapshot()
	}
}

// replayN is the parameter count of the recover_chain workload's model.
const replayN = 1_169_955

// BenchmarkAdamKernel is one pass of the Adam rule over replayN parameters:
// the Go loop against adamRange, which is the AVX kernel plus a Go tail on
// amd64 with AVX and the Go loop elsewhere.
func BenchmarkAdamKernel(b *testing.B) {
	p, g := benchVecs(replayN)
	m, v := tensor.New(replayN), tensor.New(replayN)
	k := NewAdam(0, AdamConfig{}).next()
	for _, kern := range []struct {
		name string
		f    func(p, m, v, g []float32, k adamCoef)
	}{{"go", adamGo}, {"packed", adamRange}} {
		b.Run(kern.name, func(b *testing.B) {
			b.SetBytes(int64(replayN * 4))
			for i := 0; i < b.N; i++ {
				kern.f(p, m, v, g, k)
			}
		})
	}
}

// BenchmarkSparseReplay replays the recover_chain chain's apply: 130 Top-K
// steps at ρ = 0.01 over replayN Adam parameters, one run of one per step
// against runs of 8, 16 and 32 (16 is the recovery load window), at 1 and 2
// workers.
func BenchmarkSparseReplay(b *testing.B) {
	const steps = 130
	r := tensor.NewRNG(3)
	run := make([]Sparse, steps)
	for s := range run {
		for j := 0; j < replayN; j++ {
			if r.Intn(100) == 0 {
				run[s].Idx = append(run[s].Idx, int32(j))
			}
		}
		run[s].Vals = randVec(r, len(run[s].Idx))
	}
	base, _ := benchVecs(replayN)
	for _, workers := range []int{1, 2} {
		type mode struct {
			name   string
			window int
			apply  func(a *Adam, params tensor.Vector, w []Sparse) error
		}
		modes := []mode{{"per-step", steps, func(a *Adam, params tensor.Vector, w []Sparse) error {
			for s := range w {
				if err := a.StepSparseRun(workers, params, w[s:s+1]); err != nil {
					return err
				}
			}
			return nil
		}}}
		for _, window := range []int{8, 16, 32} {
			modes = append(modes, mode{fmt.Sprintf("tiled/window=%d", window), window, func(a *Adam, params tensor.Vector, w []Sparse) error {
				return a.StepSparseRun(workers, params, w)
			}})
		}
		for _, mode := range modes {
			b.Run(fmt.Sprintf("%s/workers=%d", mode.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					a, params := NewAdam(replayN, AdamConfig{}), base.Clone()
					b.StartTimer()
					for lo := 0; lo < steps; lo += mode.window {
						if err := mode.apply(a, params, run[lo:min(lo+mode.window, steps)]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
