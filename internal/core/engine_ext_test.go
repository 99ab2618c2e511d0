package core

import (
	"strings"
	"testing"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/model"
	"lowdiff/internal/optim"
	"lowdiff/internal/storage"
	"lowdiff/internal/tensor"
)

func TestEngineErrorFeedbackOption(t *testing.T) {
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(3, 64), Workers: 2, Rho: 0.05,
		ErrorFeedback: true, Store: mem, FullEvery: 10, Seed: 11, LR: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.comps[0].Name(); !strings.HasSuffix(got, "+ef") {
		t.Fatalf("compressor = %q, want error-feedback wrapper", got)
	}
	l0 := e.Loss()
	stats, err := e.Run(200)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalLoss >= l0/5 {
		t.Fatalf("EF training did not converge: %v -> %v", l0, stats.FinalLoss)
	}
	if !e.WorkersInSync() {
		t.Fatal("workers drifted with EF enabled")
	}
}

// Error feedback at an aggressive ratio still trains stably end to end.
// (On a near-deterministic objective plain Top-K is greedy coordinate
// descent and already strong; EF's advantage shows under gradient noise —
// see compress.TestErrorFeedbackRecoversBuriedSignal and the noisy leg
// below.)
func TestEngineErrorFeedbackStableAtLowRho(t *testing.T) {
	// Under gradient noise at rho=0.001, plain Top-K stalls while Top-K
	// with error feedback converges: this configuration ends at a loss of
	// about 81.5 without EF and 0.097 with it.
	noisy := func(ef bool) float64 {
		e, err := NewEngine(Options{
			Spec: model.Tiny(4, 256), Workers: 2, Optimizer: "sgd", LR: 0.002,
			Rho: 0.001, ErrorFeedback: ef, Noise: 0.3, Seed: 24,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run(1500)
		if err != nil {
			t.Fatal(err)
		}
		return stats.FinalLoss
	}
	if plain, withEF := noisy(false), noisy(true); plain <= withEF {
		t.Fatalf("noisy rho=0.001: plain Top-K loss %v not above Top-K+EF loss %v", plain, withEF)
	}

	// EF stability needs the learning rate scaled down by the feedback
	// delay (~n/k steps between visits to a coordinate).
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 128), Workers: 1, Rho: 0.01, Optimizer: "sgd",
		ErrorFeedback: true, Seed: 12, LR: 0.002, Noise: 0.001,
	})
	if err != nil {
		t.Fatal(err)
	}
	l0 := e.Loss()
	stats, err := e.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalLoss >= l0/5 {
		t.Fatalf("EF at rho=0.01 did not converge: %v -> %v", l0, stats.FinalLoss)
	}
}

// Recovery remains bit-exact with error feedback: the persisted gradients
// are exactly what training applied, regardless of the EF memory.
func TestEngineErrorFeedbackRecoveryStillExact(t *testing.T) {
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 48), Workers: 2, Rho: 0.05,
		ErrorFeedback: true, Optimizer: "adam", LR: 0.01,
		Store: mem, FullEvery: 8, BatchSize: 1, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(13); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// Rebuild by replaying from the latest full checkpoint by hand.
	m, err := checkpoint.Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	latest, ok := m.LatestFull()
	if !ok || latest.Iter != 8 {
		t.Fatalf("latest full = %+v", latest)
	}
	full, err := checkpoint.LoadFull(mem, latest.Name)
	if err != nil {
		t.Fatal(err)
	}
	chain := m.DiffsAfter(full.Iter)
	if len(chain) != 5 {
		t.Fatalf("chain length %d", len(chain))
	}
	params := tensor.Vector(full.Params).Clone()
	o, err := optim.FromState(full.Opt, len(params))
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range chain {
		d, err := checkpoint.LoadDiff(mem, entry.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.StepSparse(params, d.Payload.Idx, d.Payload.Vals); err != nil {
			t.Fatal(err)
		}
	}
	live := e.Params()
	for i := range params {
		if params[i] != live[i] {
			t.Fatal("EF recovery diverged from live state")
		}
	}
}

func TestEngineRetainFullsGC(t *testing.T) {
	mem := storage.NewMem()
	e, err := NewEngine(Options{
		Spec: model.Tiny(2, 16), Workers: 1, Rho: 0.2,
		Store: mem, FullEvery: 5, BatchSize: 1, RetainFulls: 2, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(25); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := checkpoint.Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fulls) != 2 {
		t.Fatalf("retained %d fulls, want 2", len(m.Fulls))
	}
	if m.Fulls[0].Iter != 20 || m.Fulls[1].Iter != 25 {
		t.Fatalf("retained fulls at %d, %d; want 20, 25", m.Fulls[0].Iter, m.Fulls[1].Iter)
	}
	// Diffs at or before the oldest retained full are gone; the chain
	// from the oldest retained full is intact.
	for _, d := range m.Diffs {
		if d.LastIter <= 20 {
			t.Fatalf("stale diff %q survived GC", d.Name)
		}
	}
	chain := m.DiffsAfter(20)
	if len(chain) != 5 {
		t.Fatalf("chain from retained full has %d diffs, want 5", len(chain))
	}
	if err := (Options{Spec: model.Tiny(1, 4), Workers: 1, RetainFulls: -1}).Spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(Options{Spec: model.Tiny(1, 4), Workers: 1, RetainFulls: -1}); err == nil {
		t.Fatal("want RetainFulls validation error")
	}
}
