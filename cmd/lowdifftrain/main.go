// Command lowdifftrain runs the functional LowDiff trainer on a scaled
// workload with real checkpoint files, and can crash mid-run and recover.
//
// Examples:
//
//	lowdifftrain -model GPT2-S -scale 2000 -iters 200 -dir /tmp/ckpts
//	lowdifftrain -model GPT2-S -scale 2000 -iters 200 -dir /tmp/ckpts -crash 130
//	lowdifftrain -dir /tmp/ckpts -recover            # inspect recoverable state
//	lowdifftrain -model GPT2-L -plus -iters 100      # LowDiff+ (no compression)
//	lowdifftrain -iters 5000 -ops-addr :9090         # live /metrics, /healthz, pprof
//	lowdifftrain -iters 200 -events run.jsonl        # structured run telemetry
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"lowdiff/internal/comm"
	"lowdiff/internal/core"
	"lowdiff/internal/model"
	"lowdiff/internal/obs"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
	"lowdiff/internal/trace"
)

func main() {
	modelName := flag.String("model", "GPT2-S", "workload from the paper's zoo")
	scale := flag.Int("scale", 2000, "divide model size by this factor")
	workers := flag.Int("workers", 2, "data-parallel workers")
	iters := flag.Int("iters", 200, "iterations to train")
	rho := flag.Float64("rho", 0.01, "Top-K compression ratio")
	optName := flag.String("opt", "adam", "optimizer: adam or sgd")
	dir := flag.String("dir", "", "checkpoint directory (empty: in-memory)")
	storeURL := flag.String("store", "",
		"persist checkpoints to a lowdiffd daemon, tcp://host:port/tenant (mutually exclusive with -dir)")
	selfcheck := flag.Bool("selfcheck", false,
		"after training, restore from the checkpoint store and require the result to be bit-exact against the live model")
	fullEvery := flag.Int("full-every", 50, "full-checkpoint interval (iterations)")
	batch := flag.Int("batch", 5, "batched gradient write size")
	crash := flag.Int("crash", 0, "simulate a crash after this many iterations (0: none)")
	doRecover := flag.Bool("recover", false, "recover from -dir and print the state instead of training")
	parallelism := flag.Int("parallelism", runtime.NumCPU(),
		"with -recover, pool workers for the replay's optimizer and scatter-add kernels (0: every processor; bit-identical at any count); training runs serially")
	plus := flag.Bool("plus", false, "run the LowDiff+ engine (no compression)")
	peer := flag.Bool("peer", false, "peer-replicated differentials: retain diffs in peer windows, persist only fulls")
	peerWindow := flag.Int("peer-window", 0, "peer differential window depth W (0: full-every)")
	peerCrash := flag.String("peer-crash", "", "scheduled peer crashes as rank@iter[,rank@iter...]")
	peerDrop := flag.Float64("peer-drop", 0, "probability a peer retain is dropped (chaos)")
	peerCorrupt := flag.Float64("peer-corrupt", 0, "probability a retained payload is corrupted (chaos)")
	seed := flag.Uint64("seed", 42, "deterministic seed")
	traceOut := flag.String("trace", "", "write a Chrome trace of the run to this file")
	traceJSONL := flag.String("trace-out", "", "write the span timeline as JSONL to this file (input for lowdifftrace)")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /healthz, /snapshot, and pprof on this address (empty: off)")
	eventsOut := flag.String("events", "", "append structured JSONL run events to this file (empty: off)")
	flag.Parse()
	if *parallelism < 0 {
		fatal(fmt.Errorf("-parallelism %d must be >= 0", *parallelism))
	}

	var store storage.Store = storage.NewMem()
	switch {
	case *storeURL != "" && *dir != "":
		fatal(fmt.Errorf("-store and -dir are mutually exclusive"))
	case *storeURL != "":
		r, err := storage.DialURL(*storeURL, storage.RemoteOptions{Seed: *seed})
		if err != nil {
			fatal(err)
		}
		defer func() { _ = r.Close() }()
		store = r
	case *dir != "":
		if *doRecover {
			// Recovery only reads: a missing directory is an error, not
			// an empty store to create.
			if _, err := os.Stat(*dir); err != nil {
				fatal(err)
			}
		}
		fs, err := storage.NewFile(*dir)
		if err != nil {
			fatal(err)
		}
		store = fs
	}

	var rec *trace.Recorder
	if *traceOut != "" || *traceJSONL != "" {
		rec = trace.New()
	}
	writeTraces := func() {
		if rec == nil {
			return
		}
		if *traceOut != "" {
			writeTraceFile(*traceOut, rec.WriteChromeTrace)
			fmt.Printf("timeline (%s) written to %s\n", rec.Summary(), *traceOut)
		}
		if *traceJSONL != "" {
			writeTraceFile(*traceJSONL, rec.WriteJSONL)
			fmt.Printf("%d spans written to %s (analyze with: lowdifftrace report %s)\n",
				rec.Len(), *traceJSONL, *traceJSONL)
		}
	}

	if *doRecover {
		if *dir == "" && *storeURL == "" {
			fatal(fmt.Errorf("-recover needs -dir or -store"))
		}
		st, applied, err := recovery.LatestParallel(store, recovery.Options{Parallelism: *parallelism, Trace: rec})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("recovered to iteration %d (%d differential records applied)\n", st.Iter, applied)
		fmt.Printf("parameters: %d floats, optimizer %q at step %d\n",
			len(st.Params), st.Opt.Name, st.Opt.Step)
		writeTraces()
		return
	}

	spec, err := model.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	scaled := spec.Scaled(*scale)
	fmt.Printf("workload %s scaled 1/%d: %d parameters, %d layers, %d workers\n",
		spec.Name, *scale, scaled.NumParams(), len(scaled.Layers), *workers)

	var reg *obs.Registry
	if *opsAddr != "" {
		reg = obs.New()
	}
	var events *obs.EventLog
	var eventsFile *os.File
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fatal(err)
		}
		eventsFile = f
		events = obs.NewEventLog(f)
	}
	closeEvents := func() {
		if eventsFile == nil {
			return
		}
		if err := events.Err(); err != nil {
			fatal(err)
		}
		if err := eventsFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("%d events written to %s\n", events.Seq(), *eventsOut)
		eventsFile = nil
	}

	if *selfcheck && *batch > 1 {
		// Batched replay folds b gradients into one step: under Adam that
		// is the gradient-accumulation approximation, and even under SGD
		// the reassociated float adds drift by ULPs (see the recovery
		// package docs). Only unbatched replay is bit-exact.
		fatal(fmt.Errorf("-selfcheck needs an exactly-replayable chain: use -batch 1"))
	}
	var plusSpec *core.PlusSpec
	if *plus {
		if *selfcheck {
			fatal(fmt.Errorf("-selfcheck supports the standard engine only (LowDiff+ persists on its own interval)"))
		}
		plusSpec = &core.PlusSpec{PersistEvery: 10}
	}

	var peerSpec *core.PeerSpec
	if *peer {
		crashes, err := parsePeerCrashes(*peerCrash)
		if err != nil {
			fatal(err)
		}
		var chaos *comm.ChaosConfig
		if len(crashes) > 0 || *peerDrop > 0 || *peerCorrupt > 0 {
			chaos = &comm.ChaosConfig{
				Seed: *seed, DropProb: *peerDrop, CorruptProb: *peerCorrupt, Crashes: crashes,
			}
		}
		peerSpec = &core.PeerSpec{Window: *peerWindow, Chaos: chaos}
	}
	e, err := core.NewEngine(core.Options{
		Spec: scaled, Workers: *workers, Optimizer: *optName, Rho: *rho,
		Store: store, FullEvery: *fullEvery, BatchSize: *batch,
		Seed: *seed, Plus: plusSpec, Peer: peerSpec,
		Trace: rec, Metrics: reg, Events: events,
	})
	if err != nil {
		fatal(err)
	}
	if *opsAddr != "" {
		srv, err := obs.Serve(*opsAddr, obs.ServerOptions{
			Registry: reg,
			Health: func() obs.HealthStatus {
				h := e.Health()
				return obs.HealthStatus{Status: h.String(), OK: h != core.HealthDegraded}
			},
			Trace: rec,
		})
		if err != nil {
			fatal(err)
		}
		defer func() { _ = srv.Close() }()
		fmt.Printf("ops endpoint on http://%s (/metrics, /healthz, /snapshot, /trace, /debug/pprof)\n", srv.Addr())
	}

	run := *iters
	if *crash > 0 && *crash < run {
		run = *crash
	}
	fmt.Printf("initial loss %.4f\n", e.Loss())
	stats, err := e.Run(run)
	if err != nil {
		fatal(err)
	}
	if err := e.Flush(); err != nil {
		fatal(err)
	}
	if rep := e.Replica(); rep != nil {
		fmt.Printf("trained %d iterations: loss %.4f, %d layer snapshots (%s), replica at iter %d, %d persists\n",
			run, stats.FinalLoss, stats.LayerSnapshots, byteCount(stats.SnapshotBytes), rep.Iter(), stats.FullWrites)
		match := "bit-exact"
		if !rep.State().Params.Equal(e.Params()) {
			match = "DIVERGED"
		}
		fmt.Printf("in-memory recovery check: replica vs model %s\n", match)
	} else {
		fmt.Printf("trained %d iterations: loss %.4f, %d diff writes (%s), %d full checkpoints, snapshot time %s\n",
			run, stats.FinalLoss, stats.DiffWrites, byteCount(stats.DiffBytes), stats.FullWrites, stats.SnapshotTime)
	}
	if *peer {
		reportPeerRecovery(e, store)
	}
	if *selfcheck {
		// Unbatched replay (checked above) is bit-exact for every
		// optimizer: recovery must land on the live parameters.
		st, applied, err := recovery.Latest(store)
		if err != nil {
			fatal(err)
		}
		if st.Iter != int64(run) {
			fatal(fmt.Errorf("selfcheck: restore landed at iteration %d, want %d", st.Iter, run))
		}
		if !st.Params.Equal(e.Params()) {
			md, _ := st.Params.MaxAbsDiff(e.Params())
			fatal(fmt.Errorf("selfcheck: restored parameters diverge from the live model at iteration %d (max |err| %g)",
				run, md))
		}
		fmt.Printf("selfcheck: restore is bit-exact at iteration %d (%d differential records applied)\n",
			st.Iter, applied)
	}
	writeTraces()
	closeEvents()
	if *crash > 0 && *crash < *iters {
		fmt.Printf("simulated crash at iteration %d; recover with:\n  lowdifftrain -dir %s -recover\n", run, *dir)
		os.Exit(1)
	}
}

// parsePeerCrashes parses "rank@iter[,rank@iter...]" into a crash schedule.
func parsePeerCrashes(s string) ([]comm.Crash, error) {
	if s == "" {
		return nil, nil
	}
	var crashes []comm.Crash
	for _, part := range strings.Split(s, ",") {
		var c comm.Crash
		if _, err := fmt.Sscanf(part, "%d@%d", &c.Rank, &c.Iter); err != nil {
			return nil, fmt.Errorf("bad -peer-crash entry %q (want rank@iter): %w", part, err)
		}
		crashes = append(crashes, c)
	}
	return crashes, nil
}

// reportPeerRecovery exercises the peer recovery path after a peer-strategy
// run: chain a surviving window onto the newest stored full and check the
// result against the live parameters.
func reportPeerRecovery(e *core.Engine, store storage.Store) {
	fmt.Printf("peer plane: health %s, survivors %d/%d, fallback active: %v\n",
		e.Health(), len(e.Peers().Survivors()), e.Peers().Size(), e.PeerFallbackActive())
	st, rep, err := recovery.FromPeers(store, e.Peers(), recovery.ValidateOptions{})
	if err != nil {
		fatal(err)
	}
	src := "storage only (no surviving window extends the store)"
	if rep.PeerRank >= 0 {
		src = fmt.Sprintf("%d differentials from rank %d's window", rep.PeerDiffs, rep.PeerRank)
	}
	match := "bit-exact"
	if !st.Params.Equal(e.Params()) {
		match = "DIVERGED"
	}
	fmt.Printf("peer recovery: storage iter %d -> %d via %s; vs live model: %s\n",
		rep.StorageIter, st.Iter, src, match)
}

// writeTraceFile writes one trace serialization to path.
func writeTraceFile(path string, write func(w io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		_ = f.Close() // trace write failed; that error is primary
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

func byteCount(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lowdifftrain:", err)
	os.Exit(1)
}
