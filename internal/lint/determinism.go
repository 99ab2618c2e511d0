package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismAnalyzer forbids nondeterminism sources inside the packages
// listed in Config.DeterministicPkgs: wall-clock reads (time.Now, Since,
// Until), package-level math/rand state, and iteration over maps (Go
// randomizes map order per run). These packages back the discrete-event
// simulator — whose runs must replay identically — and the checkpoint
// encoder — whose output must be byte-identical for equal states so
// differential chains stay diffable and CRCs stay stable.
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and map iteration in " +
		"declared-deterministic packages",
	Run: runDeterminism,
}

// wallClockFuncs are time-package functions that read the wall clock.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// seededRandFuncs construct explicitly seeded generators and are allowed:
// a *rand.Rand built from a fixed seed is deterministic.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	if !pass.Config.deterministic(pass.Pkg.Path) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				sig, ok := fn.Type().(*types.Signature)
				if !ok || sig.Recv() != nil {
					return true // methods (e.g. on a seeded *rand.Rand) are fine
				}
				switch fn.Pkg().Path() {
				case "time":
					if wallClockFuncs[fn.Name()] {
						pass.Reportf(n.Pos(),
							"call to time.%s reads the wall clock in deterministic package %s; thread the simulated clock instead",
							fn.Name(), pass.Pkg.Path)
					}
				case "math/rand", "math/rand/v2":
					if !seededRandFuncs[fn.Name()] {
						pass.Reportf(n.Pos(),
							"call to %s.%s uses process-global random state in deterministic package %s; use an explicitly seeded *rand.Rand or the repo RNG",
							fn.Pkg().Name(), fn.Name(), pass.Pkg.Path)
					}
				}
			case *ast.RangeStmt:
				if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); !ok {
					return true
				}
				// `for range m` observes only the length, which is
				// deterministic; anything binding keys or values is not.
				if (n.Key == nil || isBlank(n.Key)) && (n.Value == nil || isBlank(n.Value)) {
					return true
				}
				pass.Reportf(n.Pos(),
					"map iteration order is randomized; in deterministic package %s collect and sort the keys, then range over the slice",
					pass.Pkg.Path)
			}
			return true
		})
	}
}
