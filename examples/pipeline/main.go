// Pipeline: LowDiff under pipeline parallelism — the paper's VGG16-PP
// configuration and stated future work. Layers are partitioned into
// stages; each stage compresses and checkpoints its own slice gradient;
// a coordinator assembles one differential per iteration; ordinary global
// recovery reproduces the per-stage training bit-exactly.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"lowdiff"
)

func main() {
	spec, err := lowdiff.ModelByName("VGG-16")
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scaled(2000)

	store := lowdiff.NewMemStore()
	engine, err := lowdiff.TrainPP(lowdiff.TrainOptions{
		Spec:      spec,
		PP:        &lowdiff.PPSpec{Stages: 4}, // pipeline depth
		Rho:       0.05,
		LR:        0.02,
		Store:     store,
		FullEvery: 20,
		BatchSize: 1, // unbatched: recovery is bit-exact even with Adam
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline-parallel %s (%d params) across %d stages:\n",
		spec.Name, spec.NumParams(), len(engine.Stages()))
	for s, st := range engine.Stages() {
		fmt.Printf("  stage %d: layers %d..%d (%d params)\n",
			s, st.FirstLayer, st.LastLayer, st.Size)
	}

	l0 := engine.Loss()
	stats, err := engine.Run(66) // crash point: past the last full checkpoint
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrained 66 iterations: loss %.2f -> %.2f\n", l0, stats.FinalLoss)
	fmt.Printf("%d assembled differential batches, %d full checkpoints\n",
		stats.DiffWrites, stats.FullWrites)

	// Recovery is the ordinary global replay: the merged stage-disjoint
	// gradients applied by one global optimizer equal the per-stage
	// updates.
	state, applied, err := lowdiff.Recover(store)
	if err != nil {
		log.Fatal(err)
	}
	md, err := state.Params.MaxAbsDiff(engine.Params())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered to iteration %d (%d records); max |err| vs live = %g\n",
		state.Iter, applied, md)
}
