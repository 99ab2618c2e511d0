// Command lowdiffbench regenerates the paper's evaluation tables and
// figures from the calibrated simulator and the functional implementation.
//
// Usage:
//
//	lowdiffbench -list            # list experiment IDs
//	lowdiffbench -exp exp1        # one experiment
//	lowdiffbench -exp exp1,exp4   # several
//	lowdiffbench -all             # everything (EXPERIMENTS.md source)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lowdiff/internal/experiments"
	"lowdiff/internal/obs"
	"lowdiff/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "list available experiment IDs and exit")
	exp := flag.String("exp", "", "comma-separated experiment IDs to run")
	all := flag.Bool("all", false, "run every experiment")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	parallelism := flag.Int("parallelism", runtime.NumCPU(),
		"data-plane pool workers for the functional experiments (1: serial; results are bit-identical either way)")
	storeURL := flag.String("store", "",
		"route functional experiments' checkpoints to a lowdiffd daemon, tcp://host:port/tenant (empty: in-memory)")
	opsAddr := flag.String("ops-addr", "", "serve /metrics, /healthz, /snapshot, and pprof on this address while experiments run (empty: off)")
	traceOut := flag.String("trace-out", "", "write the functional experiments' span timeline as JSONL to this file (input for lowdifftrace)")
	flag.Parse()

	experiments.SetParallelism(*parallelism)
	experiments.SetStoreURL(*storeURL)

	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.New()
		experiments.SetTrace(rec)
	}

	var reg *obs.Registry
	if *opsAddr != "" {
		reg = obs.New()
		srv, err := obs.Serve(*opsAddr, obs.ServerOptions{
			Registry: reg,
			Health:   func() obs.HealthStatus { return obs.HealthStatus{Status: "ok", OK: true} },
			Trace:    rec,
		})
		if err != nil {
			fatal(err)
		}
		defer func() { _ = srv.Close() }()
		fmt.Fprintf(os.Stderr, "ops endpoint on http://%s (/metrics, /healthz, /snapshot, /trace, /debug/pprof)\n", srv.Addr())
	}

	render := func(t *experiments.Table) error {
		if *csv {
			return t.RenderCSV(os.Stdout)
		}
		return t.Render(os.Stdout)
	}
	switch {
	case *list:
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
	case *all:
		for _, id := range experiments.IDs() {
			t, err := runExperiment(reg, id)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", id, err))
			}
			if err := render(t); err != nil {
				fatal(err)
			}
		}
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			t, err := runExperiment(reg, strings.TrimSpace(id))
			if err != nil {
				fatal(err)
			}
			if err := render(t); err != nil {
				fatal(err)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if rec != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteJSONL(f); err != nil {
			_ = f.Close() // trace write failed; that error is primary
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "%d spans written to %s (analyze with: lowdifftrace report %s)\n",
			rec.Len(), *traceOut, *traceOut)
	}
}

// runExperiment runs one experiment, counting it and observing its wall
// time in the bench.experiment_seconds histogram under its id.
func runExperiment(reg *obs.Registry, id string) (*experiments.Table, error) {
	start := time.Now()
	t, err := experiments.Run(id)
	reg.Histogram("bench.experiment_seconds", obs.DefBuckets, obs.L("id", id)).Observe(time.Since(start).Seconds())
	reg.Counter("bench.experiments").Inc()
	return t, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lowdiffbench:", err)
	os.Exit(1)
}
