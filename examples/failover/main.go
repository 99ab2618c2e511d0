// Failover: crash a training job mid-interval, recover from the latest
// full checkpoint plus the differential chain, resume training, and verify
// bit-exactness against an uninterrupted reference run.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"lowdiff"
)

func main() {
	spec, err := lowdiff.ModelByName("BERT-B")
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scaled(2000)

	// Reference: 90 uninterrupted iterations (SGD: batched replay is
	// exact; Adam with BatchSize 1 would be bit-exact too).
	opts := lowdiff.TrainOptions{
		Spec: spec, Workers: 2, Optimizer: "sgd", LR: 0.05, Rho: 0.02,
		FullEvery: 40, BatchSize: 1, Seed: 7,
	}
	ref, err := lowdiff.Train(opts)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ref.Run(90); err != nil {
		log.Fatal(err)
	}

	// The "victim" trains with checkpointing and crashes at iteration 67
	// (mid-interval: the last full checkpoint is at 40, diffs cover 41+).
	store := lowdiff.NewMemStore()
	victimOpts := opts
	victimOpts.Store = store
	victim, err := lowdiff.Train(victimOpts)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := victim.Run(67); err != nil {
		log.Fatal(err)
	}
	if err := victim.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("victim crashed at iteration 67 (simulated)")

	// Recovery: the full checkpoint at 40 plus the replayed differential
	// chain, bit-exact with unbatched differentials.
	state, applied, err := lowdiff.Recover(store)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered to iteration %d after applying %d differential records\n",
		state.Iter, applied)

	// Resume a fresh engine directly from the recovered state and finish
	// the job; the trajectory must rejoin the uninterrupted reference.
	resumed, err := lowdiff.Resume(opts, state)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed at iteration %d\n", resumed.Iter())
	if _, err := resumed.Run(23); err != nil {
		log.Fatal(err)
	}
	finalDiff, err := resumed.Params().MaxAbsDiff(ref.Params())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed run vs uninterrupted reference at 90: max diff %g\n", finalDiff)
	if finalDiff == 0 {
		fmt.Println("failover transparent: trajectories identical")
	}
}
