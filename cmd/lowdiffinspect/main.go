// Command lowdiffinspect lists and inspects the checkpoints in a store
// directory: the manifest, each record's header, payload sizes, and the
// recoverable chain.
//
//	lowdiffinspect -dir /tmp/ckpts
//	lowdiffinspect -dir /tmp/ckpts -v     # decode every record
//	lowdiffinspect verify -dir /tmp/ckpts # CRC-check every object
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lowdiff/internal/checkpoint"
	"lowdiff/internal/recovery"
	"lowdiff/internal/storage"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		runVerify(os.Args[2:])
		return
	}
	dir := flag.String("dir", "", "checkpoint directory")
	storeURL := flag.String("store", "", "inspect a lowdiffd tenant instead: tcp://host:port/tenant")
	verbose := flag.Bool("v", false, "decode and describe every record")
	compact := flag.Bool("compact", false, "fold the differential chain into a fresh full checkpoint and GC")
	flag.Parse()
	if *dir == "" && *storeURL == "" {
		flag.Usage()
		os.Exit(2)
	}
	store, err := openStore(*dir, *storeURL)
	if err != nil {
		fatal(err)
	}
	if *compact {
		st, freed, err := recovery.Compact(store)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("compacted to a full checkpoint at iteration %d (%d objects freed)\n", st.Iter, freed)
	}
	m, err := checkpoint.Scan(store)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d full checkpoints, %d differential checkpoints\n", len(m.Fulls), len(m.Diffs))
	for _, e := range m.Fulls {
		size, err := store.Size(e.Name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-40s iter %8d  %10d bytes", e.Name, e.Iter, size)
		if *verbose {
			f, err := checkpoint.LoadFull(store, e.Name)
			if err != nil {
				fmt.Printf("  DECODE ERROR: %v", err)
			} else {
				fmt.Printf("  params=%d opt=%s step=%d", len(f.Params), f.Opt.Name, f.Opt.Step)
			}
		}
		fmt.Println()
	}
	for _, e := range m.Diffs {
		size, err := store.Size(e.Name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  %-40s [%d..%d]  %10d bytes", e.Name, e.FirstIter, e.LastIter, size)
		if *verbose {
			d, err := checkpoint.LoadDiff(store, e.Name)
			if err != nil {
				fmt.Printf("  DECODE ERROR: %v", err)
			} else {
				fmt.Printf("  kind=%s count=%d codec=%s nnz=%d",
					d.Kind, d.Count, d.Payload.Codec, d.Payload.NNZ())
			}
		}
		fmt.Println()
	}
	if latest, ok := m.LatestFull(); ok {
		chain := m.DiffsAfter(latest.Iter)
		last := latest.Iter
		if len(chain) > 0 {
			last = chain[len(chain)-1].LastIter
		}
		fmt.Printf("recoverable to iteration %d (latest full at %d + %d differential records)\n",
			last, latest.Iter, len(chain))
	} else {
		fmt.Println("no full checkpoint: nothing recoverable")
	}
}

// runVerify CRC-checks every checkpoint object and reports per-chain
// validity: which objects are damaged, where recovery would anchor, and
// how far it would reach.
//
// Exit codes: 0 when the store is clean, 1 when any object is damaged or
// nothing is recoverable, 3 when quarantined objects are present (a prior
// recovery moved damage aside — the store needs operator attention even if
// the remaining chain verifies).
func runVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "checkpoint directory")
	storeURL := fs.String("store", "", "verify a lowdiffd tenant instead: tcp://host:port/tenant")
	retries := fs.Int("retries", 3, "load attempts per object (absorbs transient read faults)")
	jsonOut := fs.Bool("json", false, "emit a machine-readable JSON report instead of text")
	fs.Parse(args)
	if *dir == "" && *storeURL == "" {
		fs.Usage()
		os.Exit(2)
	}
	store, err := openStore(*dir, *storeURL)
	if err != nil {
		fatal(err)
	}
	report, err := recovery.Verify(store, recovery.ValidateOptions{LoadRetries: *retries})
	if err != nil {
		fatal(err)
	}
	quarantined, err := store.List(recovery.QuarantinePrefix)
	if err != nil {
		fatal(err)
	}
	valid, corrupt, missing := report.Counts()

	if *jsonOut {
		type object struct {
			Name   string `json:"name"`
			Full   bool   `json:"full"`
			Status string `json:"status"`
			Error  string `json:"error,omitempty"`
		}
		out := struct {
			Objects         []object `json:"objects"`
			Valid           int      `json:"valid"`
			Corrupt         int      `json:"corrupt"`
			Missing         int      `json:"missing"`
			BaseName        string   `json:"base_name,omitempty"`
			BaseIter        int64    `json:"base_iter"`
			RecoverableIter int64    `json:"recoverable_iter"`
			Clean           bool     `json:"clean"`
			Quarantined     []string `json:"quarantined"`
		}{
			Objects: make([]object, 0, len(report.Objects)),
			Valid:   valid, Corrupt: corrupt, Missing: missing,
			BaseName: report.BaseName, BaseIter: report.BaseIter,
			RecoverableIter: report.RecoverableIter,
			Clean:           report.Clean() && report.BaseIter >= 0,
			Quarantined:     quarantined,
		}
		for _, o := range report.Objects {
			obj := object{Name: o.Name, Full: o.IsFull, Status: o.Status.String()}
			if o.Err != nil {
				obj.Error = o.Err.Error()
			}
			out.Objects = append(out.Objects, obj)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, o := range report.Objects {
			fmt.Printf("  %-40s %s", o.Name, o.Status)
			if o.Err != nil {
				fmt.Printf("  (%v)", o.Err)
			}
			fmt.Println()
		}
		fmt.Printf("%d objects: %d valid, %d corrupt, %d missing\n",
			len(report.Objects), valid, corrupt, missing)
		for _, name := range quarantined {
			fmt.Printf("  quarantined: %s\n", name)
		}
		if report.BaseIter < 0 {
			fmt.Println("no valid full checkpoint: nothing recoverable")
		} else {
			fmt.Printf("recoverable to iteration %d (anchored on %s at iteration %d)\n",
				report.RecoverableIter, report.BaseName, report.BaseIter)
		}
	}

	switch {
	case len(quarantined) > 0:
		os.Exit(3)
	case report.BaseIter < 0 || !report.Clean():
		os.Exit(1)
	}
}

// openStore opens either a local checkpoint directory or a lowdiffd
// tenant; exactly one of the two must be given. The directory must exist:
// inspecting a mistyped path is an error, not an empty store to create.
func openStore(dir, storeURL string) (storage.Store, error) {
	switch {
	case dir != "" && storeURL != "":
		return nil, fmt.Errorf("-dir and -store are mutually exclusive")
	case storeURL != "":
		return storage.DialURL(storeURL, storage.RemoteOptions{})
	default:
		if _, err := os.Stat(dir); err != nil {
			return nil, err
		}
		return storage.NewFile(dir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lowdiffinspect:", err)
	os.Exit(1)
}
