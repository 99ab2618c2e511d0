// Package lint is a small, from-scratch static-analysis framework built
// directly on go/ast, go/parser, and go/types (no external dependencies),
// plus the three codebase-specific analyzers that enforce LowDiff's
// correctness invariants where a test cannot, because a violation passes
// every run that does not happen to hit it:
//
//   - determinism: no wall-clock reads, global math/rand, or unsorted map
//     iteration in the declared-deterministic packages. The discrete-event
//     simulator must replay identically and the checkpoint encoder must
//     emit byte-identical output for equal states, or differential
//     checkpoints stop being diffable and CRC chain validation breaks.
//   - checkederr: no silently dropped error results from writes, Close,
//     Sync, Delete, and friends. A dropped storage error is silent
//     durability loss: the trainer believes a checkpoint persisted when it
//     did not.
//   - floateq: no ==/!= on floating-point operands outside an explicit
//     allowlist of bit-exact comparison helpers. Bit-exact recovery is
//     verified by comparing float bit patterns, not approximate values.
//
// Lock pairing and hot-path allocations are held by tests instead: each
// owning package's tests deadlock on a leaked Unlock, and its allocgate
// bounds fail on an extra allocation (DESIGN.md §6.1). Locks copied by
// value are go vet's copylocks, which check.sh and CI run.
//
// Findings can be suppressed per line with a directive comment:
//
//	//lint:allow <rule>[,<rule>...] <reason>
//
// placed on the offending line or the line directly above it. The reason
// is mandatory; a bare directive, and one that suppresses no finding, is
// itself reported (rule "lintdirective").
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Diagnostic is one finding, positioned relative to the load root. The
// JSON field names are the machine-readable contract of
// `lowdifflint -json` (consumed by the CI lint job).
type Diagnostic struct {
	File    string `json:"file"` // path relative to the load root
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Analyzer is one lint pass over a type-checked package.
type Analyzer struct {
	Name string // rule name used in diagnostics and //lint:allow directives
	Doc  string
	Run  func(*Pass)
}

// Pass hands an analyzer one package plus the reporting sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Config   *Config
	report   func(Diagnostic)
}

// Reportf records a finding at pos under the pass's rule name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	file, line, col := p.Pkg.Position(pos)
	p.report(Diagnostic{
		File:    file,
		Line:    line,
		Col:     col,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Config parameterizes the analyzers so the same passes can run over the
// real module and over test fixtures.
type Config struct {
	// DeterministicPkgs lists import paths where the determinism analyzer
	// applies. An entry covers the package itself and everything beneath
	// it ("m/sim" covers "m/sim" and "m/sim/inner").
	DeterministicPkgs []string
	// FloatEqAllowFuncs lists functions permitted to compare floats with
	// ==/!=: "pkgpath.Func" for functions, "pkgpath.Type.Method" for
	// methods. These are the designated bit-exact comparison helpers.
	FloatEqAllowFuncs []string
}

// DefaultConfig returns the configuration enforced on this repository.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{
			"lowdiff/internal/sim",
			"lowdiff/internal/timemodel",
			"lowdiff/internal/cluster",
			"lowdiff/internal/checkpoint",
			"lowdiff/internal/obs",
			"lowdiff/internal/core",
			// Peer windows and chaos injection must replay identically from a
			// seed: crash schedules, drop/corrupt draws, and window eviction
			// order all feed the seeded chaos-matrix CI job.
			"lowdiff/internal/comm",
			// The codecs and merges produce what a checkpoint stores: map
			// iteration or wall-clock/global-rand reads in them would make
			// the recorded bytes differ from run to run.
			"lowdiff/internal/compress",
			// The optimizer kernels are the data plane's apply stage:
			// replayed steps must round exactly like the live ones, at any
			// worker count of the tiled replay, and snapshots must list
			// slots in a fixed order.
			"lowdiff/internal/optim",
			// Profile reports and golden trace fixtures are byte-exact:
			// any map iteration or wall-clock read in the analyzer or the
			// serializers would make reports flap between runs.
			"lowdiff/internal/trace",
			// The checkpoint daemon must reproduce the golden fixtures byte
			// for byte over the wire; its quota accounting and admission
			// decisions may not depend on wall clocks or map order.
			"lowdiff/internal/storaged",
			// The paper's tables come from the simulator alone: the same
			// build must print the same bytes, so no generator may read a
			// clock or depend on map order.
			"lowdiff/internal/experiments",
		},
		FloatEqAllowFuncs: []string{
			"lowdiff/internal/tensor.Vector.Equal",
		},
	}
}

// DefaultAnalyzers returns every analyzer, in reporting order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		CheckedErrAnalyzer,
		FloatEqAnalyzer,
	}
}

func (c *Config) deterministic(pkgPath string) bool {
	for _, p := range c.DeterministicPkgs {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Run executes the analyzers over the packages, applies //lint:allow
// suppressions, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup, supDiags := collectSuppressions(pkg, known)
		diags = append(diags, supDiags...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Config: cfg}
			pass.report = func(d Diagnostic) {
				if !sup.allows(d) {
					diags = append(diags, d)
				}
			}
			a.Run(pass)
		}
		diags = append(diags, sup.stale()...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return diags
}

// directive is one well-formed //lint:allow comment.
type directive struct {
	file      string
	line, col int
	rules     []string
	used      map[string]bool // rules that suppressed at least one finding
}

// suppressions indexes a package's directives by the "file:line" keys they
// cover.
type suppressions struct {
	dirs   []*directive
	byLine map[string][]*directive
}

func (s *suppressions) allows(d Diagnostic) bool {
	for _, dir := range s.byLine[d.File+":"+strconv.Itoa(d.Line)] {
		if slices.Contains(dir.rules, d.Rule) {
			dir.used[d.Rule] = true
			return true
		}
	}
	return false
}

// stale reports every directive rule that suppressed no finding, so a
// suppression cannot outlive the finding it was written for.
func (s *suppressions) stale() []Diagnostic {
	var diags []Diagnostic
	for _, dir := range s.dirs {
		for _, r := range dir.rules {
			if !dir.used[r] {
				diags = append(diags, Diagnostic{
					File: dir.file, Line: dir.line, Col: dir.col, Rule: "lintdirective",
					Message: fmt.Sprintf("lint:allow %s suppresses no finding; delete it", r),
				})
			}
		}
	}
	return diags
}

const allowDirective = "lint:allow"

// collectSuppressions scans a package's comments for //lint:allow
// directives. A directive suppresses the named rules on its own line and
// on the line directly below (so it can trail the offending statement or
// sit on its own line above it). When the anchored line starts a simple
// statement that spans multiple lines (a wrapped call, a multi-line
// composite literal), the suppression covers the statement's whole line
// span — findings inside such a statement are reported on continuation
// lines, and a directive above it must still reach them. Compound
// statements (if/for/switch/...) deliberately only get their header line,
// so one directive can never blanket a whole block body. Malformed
// directives — no rules, an unknown rule, or a missing reason — are
// reported as diagnostics so suppressions stay auditable.
func collectSuppressions(pkg *Package, known map[string]bool) (*suppressions, []Diagnostic) {
	sup := &suppressions{byLine: map[string][]*directive{}}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		spans := simpleStmtSpans(pkg, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+allowDirective)
				if !ok {
					continue
				}
				file, line, col := pkg.Position(c.Pos())
				bad := func(format string, args ...any) {
					diags = append(diags, Diagnostic{
						File: file, Line: line, Col: col,
						Rule:    "lintdirective",
						Message: fmt.Sprintf(format, args...),
					})
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					bad("lint:allow directive names no rules")
					continue
				}
				if len(fields) < 2 {
					bad("lint:allow directive is missing a reason")
					continue
				}
				rules := strings.Split(fields[0], ",")
				valid := true
				for _, r := range rules {
					if !known[r] {
						bad("lint:allow names unknown rule %q", r)
						valid = false
					}
				}
				if !valid {
					continue
				}
				dir := &directive{file: file, line: line, col: col, rules: rules, used: map[string]bool{}}
				sup.dirs = append(sup.dirs, dir)
				endFile, endLine, _ := pkg.Position(c.End())
				lines := map[int]bool{endLine: true, endLine + 1: true}
				// Extend over multi-line simple statements anchored at
				// either candidate line.
				for _, sp := range spans {
					if sp.start == endLine || sp.start == endLine+1 {
						for l := sp.start; l <= sp.end; l++ {
							lines[l] = true
						}
					}
				}
				for l := range lines {
					key := endFile + ":" + strconv.Itoa(l)
					sup.byLine[key] = append(sup.byLine[key], dir)
				}
			}
		}
	}
	return sup, diags
}

// lineSpan is the first/last source line of one statement.
type lineSpan struct{ start, end int }

// simpleStmtSpans collects the line spans of every "simple" statement in
// the file: assignments, declarations, expression/send/go/defer/return
// statements. These are the shapes whose findings can land on
// continuation lines (wrapped arguments, multi-line composite literals)
// while a suppression directive sits above the first line. Compound
// statements are excluded so a directive can never suppress an entire
// block body.
func simpleStmtSpans(pkg *Package, f *ast.File) []lineSpan {
	var spans []lineSpan
	add := func(n ast.Node) {
		// A statement wrapping a function literal spans the literal's
		// whole body; suppressing all of it from one directive would be a
		// blanket. Inner statements register their own spans instead.
		containsLit := false
		ast.Inspect(n, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				containsLit = true
				return false
			}
			return true
		})
		if containsLit {
			return
		}
		_, start, _ := pkg.Position(n.Pos())
		_, end, _ := pkg.Position(n.End())
		if end > start {
			spans = append(spans, lineSpan{start: start, end: end})
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.DeclStmt,
			*ast.SendStmt, *ast.GoStmt, *ast.DeferStmt, *ast.IncDecStmt:
			add(n)
		case *ast.GenDecl:
			// Package-level var/const blocks with multi-line values.
			add(n)
		}
		return true
	})
	return spans
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
