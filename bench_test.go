// Benchmarks regenerating every table and figure of the paper's evaluation
// (one testing.B benchmark per table/figure; the benchmark bodies call the
// same generators cmd/lowdiffbench uses), plus end-to-end benchmarks of the
// functional LowDiff stack.
package lowdiff

import (
	"io"
	"testing"

	"lowdiff/internal/experiments"
	"lowdiff/internal/model"
	"lowdiff/internal/storage"
)

// benchExperiment regenerates one paper table/figure per iteration and
// renders it to io.Discard.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig1a(b *testing.B)  { benchExperiment(b, "fig1a") }
func BenchmarkFig1b(b *testing.B)  { benchExperiment(b, "fig1b") }
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkExp1(b *testing.B)   { benchExperiment(b, "exp1") }
func BenchmarkExp2(b *testing.B)   { benchExperiment(b, "exp2") }
func BenchmarkExp3(b *testing.B)   { benchExperiment(b, "exp3") }
func BenchmarkExp4(b *testing.B)   { benchExperiment(b, "exp4") }
func BenchmarkExp5(b *testing.B)   { benchExperiment(b, "exp5") }
func BenchmarkExp6a(b *testing.B)  { benchExperiment(b, "exp6a") }
func BenchmarkExp6b(b *testing.B)  { benchExperiment(b, "exp6b") }
func BenchmarkExp7(b *testing.B)   { benchExperiment(b, "exp7") }
func BenchmarkExp8(b *testing.B)   { benchExperiment(b, "exp8") }
func BenchmarkExp9(b *testing.B)   { benchExperiment(b, "exp9") }
func BenchmarkExp10(b *testing.B)  { benchExperiment(b, "exp10") }

// End-to-end functional benchmarks: the real LowDiff stack at scaled model
// size.

func benchSpec(b *testing.B) Spec {
	b.Helper()
	spec, err := model.ByName("GPT2-S")
	if err != nil {
		b.Fatal(err)
	}
	return spec.Scaled(2000)
}

// BenchmarkTrainLowDiff measures per-iteration cost of the functional
// LowDiff engine (2 workers, per-iteration differential checkpointing).
func BenchmarkTrainLowDiff(b *testing.B) {
	e, err := Train(TrainOptions{
		Spec: benchSpec(b), Workers: 2, Rho: 0.01,
		Store: storage.NewMem(), FullEvery: 50, BatchSize: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := e.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTrainNoCheckpoint is the W/O CKPT baseline for the engine.
func BenchmarkTrainNoCheckpoint(b *testing.B) {
	e, err := Train(TrainOptions{Spec: benchSpec(b), Workers: 2, Rho: 0.01, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := e.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTrainPlus measures the LowDiff+ engine (layer-wise snapshots,
// CPU replica).
func BenchmarkTrainPlus(b *testing.B) {
	e, err := TrainPlus(TrainOptions{Spec: benchSpec(b), Workers: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := e.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// recovery benchmarks share a prepared store with a 64-diff chain.
func recoveryStore(b *testing.B) Store {
	b.Helper()
	store := storage.NewMem()
	e, err := Train(TrainOptions{
		Spec: benchSpec(b), Workers: 1, Optimizer: "sgd", Rho: 0.02,
		Store: store, FullEvery: 64, BatchSize: 1, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.Run(64 + 48); err != nil {
		b.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	return store
}

// BenchmarkRecovery measures recovery through the facade: one full and 48
// replayed differentials.
func BenchmarkRecovery(b *testing.B) {
	store := recoveryStore(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Recover(store); err != nil {
			b.Fatal(err)
		}
	}
}
