// Command lowdifflint runs the repository's custom static-analysis passes
// — determinism, checkederr, floateq — over the given package patterns and
// exits 1 on any finding. It loads the packages through `go list -export`,
// so the go command must be on PATH: if it is missing or the packages do
// not load, lowdifflint prints why and exits 2. Locks copied by value are
// left to go vet's copylocks.
//
//	lowdifflint ./...
//	lowdifflint ./internal/sim ./internal/cluster/...
//	lowdifflint -json ./...
//	lowdifflint -list
//
// Findings print as path:line:col: rule: message, or with -json as a JSON
// array of {file, line, col, rule, message} objects (an empty run prints
// "[]"), which the CI lint job turns into per-line annotations. Suppress
// a single line with a justified directive on it or directly above it:
//
//	//lint:allow <rule> <reason>
//
// See internal/lint and DESIGN.md §6 for the invariants each rule guards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lowdiff/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()
	if *list {
		for _, a := range lint.DefaultAnalyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(cwd, patterns)
	if err != nil {
		fatal(err)
	}
	diags := lint.Run(pkgs, lint.DefaultAnalyzers(), lint.DefaultConfig())
	if *asJSON {
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "lowdifflint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lowdifflint:", err)
	os.Exit(2)
}
