package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads: -sets takes
// the bounds from it, the smoke test holds the harness's tables to it.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit string
		Bound      float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// runSets is the acceptance driver's spread test, scriptable: every workload
// runs n times, each time in a process of its own (so peak_rss_mb and the
// collector's state do not leak between runs) and with another seed, and each
// end-to-end metric's quartile spread is printed beside its bound.
func runSets(cfg config, n int, check bool) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-sets runs from the root of the checkout: %w", err)
	}
	var man benchmarkFile
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	over := 0
	for _, w := range workloads {
		if cfg.workload != "" && cfg.workload != w.name {
			continue
		}
		values := map[string][]float64{}
		for set := 0; set < n; set++ {
			args := []string{
				"-workload", w.name, "-tmp", cfg.tmp,
				"-seed", strconv.FormatUint(cfg.seed+uint64(set), 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			}
			if cfg.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s set %d: %w", w.name, set, err)
			}
			res, err := lastLineResult(out)
			if err != nil {
				return fmt.Errorf("%s set %d: %w", w.name, set, err)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "%s set %d done\n", w.name, set)
		}
		for _, m := range man.EndToEnd {
			vs := values[m.Name]
			spread := quartileSpread(vs)
			flag := ""
			// setup_s is held to its bound between medians only.
			if spread > m.Bound && m.Name != "setup_s" {
				flag = "  OVER BOUND"
				over++
			}
			fmt.Printf("%-14s %-24s median %12.6g %-5s spread %6.2f%% bound %5.1f%%%s  %s\n",
				w.name, m.Name, median(vs), m.Unit, 100*spread, 100*m.Bound, flag, formatValues(vs))
		}
	}
	if check && over > 0 {
		return fmt.Errorf("%d spreads exceed their bounds", over)
	}
	return nil
}

func lastLineResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported %d failed of %d", res.Failed, res.Attempted)
	}
	return &res, nil
}

func formatValues(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', 5, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
