// Benchmarks regenerating every table and figure of the paper's evaluation
// (one testing.B benchmark per table/figure; the benchmark bodies call the
// same simulator generators cmd/lowdiffbench uses). The functional stack is
// measured by the paired workloads under bench/, not here.
package lowdiff

import (
	"io"
	"testing"

	"lowdiff/internal/experiments"
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
