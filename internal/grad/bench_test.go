package grad

import (
	"testing"

	"lowdiff/internal/model"
	"lowdiff/internal/tensor"
)

// workloadSpec is the benchmark's model shape: GPT2-S at 1/100, 74 layers
// and 1,169,955 parameters, trained with noise half-width 2.
var workloadSpec = model.GPT2Small().Scaled(100)

const workloadNoise = 2.0

// BenchmarkOracleLocal is one worker's whole gradient at the workload's
// shape, the backward pass of every data-parallel step.
func BenchmarkOracleLocal(b *testing.B) {
	o, err := New(workloadSpec, 1, workloadNoise)
	if err != nil {
		b.Fatal(err)
	}
	p := model.NewParams(workloadSpec)
	p.InitUniform(2)
	g := tensor.New(workloadSpec.NumParams())
	b.SetBytes(int64(len(g) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := o.Local(p.Flat, 1, i, g); err != nil {
			b.Fatal(err)
		}
	}
}
