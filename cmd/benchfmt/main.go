// Command benchfmt converts `go test -bench` output on stdin into the
// repository's BENCH_*.json baseline format on stdout: benchmark name →
// ns/op, B/op, allocs/op, with deterministic (sorted) key order.
//
//	go test -run '^$' -bench PoolFull -benchmem ./internal/storaged | benchfmt > BENCH_pool.json
//
// With -gate it instead compares the run on stdin against a checked-in
// baseline and exits 1 if any gated benchmark's allocs/op or B/op exceeds
// the baseline by more than -slack (ns/op is machine-dependent and never
// gated):
//
//	go test -run '^$' -bench Merge -benchmem ./internal/compress |
//	    benchfmt -gate BENCH_dataplane.json -gate-match kway-pooled -slack 0.25
package main

import (
	"flag"
	"fmt"
	"os"

	"lowdiff/internal/obs"
)

func main() {
	gate := flag.String("gate", "", "baseline BENCH_*.json to gate allocs/op and B/op against (no JSON is emitted)")
	gateMatch := flag.String("gate-match", "", "only gate baseline benchmarks whose name contains this substring")
	slack := flag.Float64("slack", 0.25, "allowed fractional regression over the baseline")
	flag.Parse()

	results, err := obs.ParseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(results) == 0 {
		fatal(fmt.Errorf("no benchmark results on stdin"))
	}
	if *gate != "" {
		f, err := os.Open(*gate)
		if err != nil {
			fatal(err)
		}
		base, err := ReadBenchJSON(f)
		_ = f.Close() // read-only; nothing to lose on close failure
		if err != nil {
			fatal(err)
		}
		violations := GateAllocs(base, results, *gateMatch, *slack)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchfmt: gate:", v)
		}
		if len(violations) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchfmt: gate clean against %s (match %q, slack %.0f%%)\n",
			*gate, *gateMatch, *slack*100)
		return
	}
	if err := obs.WriteBenchJSON(os.Stdout, results); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchfmt:", err)
	os.Exit(1)
}
