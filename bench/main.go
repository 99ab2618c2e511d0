// Command bench is the repository's end-to-end benchmark: it takes one job
// configuration per workload through set-up, paired training blocks against a
// twin that does not checkpoint, flush and recovery, checks that the outputs
// are correct, and prints every metric by name with its unit. The last line
// of standard output is one JSON object for the acceptance driver. See
// README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool
	out      string // directory for the traced run's span JSONL; "" keeps none
	tmp      string // parent of the run's temporary directory
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace, sets int
	var check bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the gradient oracle and of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 14, "seconds to measure for (training blocks plus recovery rounds)")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&cfg.quick, "quick", false, "smoke scale: tiny model, a few iterations, every check on, timings meaningless")
	flag.StringVar(&cfg.out, "out", "", "traced run: also write the spans as JSONL into this directory")
	flag.StringVar(&cfg.tmp, "tmp", ".bench_build/tmp", "directory under which the run keeps its stores; emptied of them on exit")
	flag.IntVar(&sets, "sets", 0, "run every workload this many times, each in its own process and with its own seed, and print the spread of every end-to-end metric")
	flag.BoolVar(&check, "check", false, "with -sets: exit 1 if a spread exceeds its bound in BENCHMARK.json")
	flag.Parse()
	cfg.trace = trace != 0

	if sets > 0 {
		if err := runSets(cfg, sets, check); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("env: nproc=%d gomaxprocs=%d %s workload=%s seed=%d seconds=%g trace=%v quick=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.quick)
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}
