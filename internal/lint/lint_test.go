package lint

import (
	"flag"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden files")

// fixtureConfig mirrors DefaultConfig for the fixture module: multi/ and
// det/ are declared deterministic, and floats/ provides the allowlisted
// bit-exact helpers.
func fixtureConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{"fixture/det", "fixture/multi"},
		FloatEqAllowFuncs: []string{
			"fixture/floats.BitEqual",
			"fixture/floats.Vec.BitEq",
		},
	}
}

func loadFixtures(t *testing.T, patterns ...string) []*Package {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", "src"), patterns)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// TestGoldenFixtures runs every analyzer over the whole fixture module and
// compares the diagnostics, package by package, against each fixture
// directory's expected.txt (absent file = no findings expected). Re-run
// with -update to rewrite the goldens.
func TestGoldenFixtures(t *testing.T) {
	pkgs := loadFixtures(t, "./...")
	diags := Run(pkgs, DefaultAnalyzers(), fixtureConfig())

	byDir := make(map[string][]string)
	for _, d := range diags {
		dir := filepath.ToSlash(filepath.Dir(d.File))
		byDir[dir] = append(byDir[dir], d.String())
	}
	// Every fixture package is checked, including those expected silent.
	srcAbs, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string]bool{}
	for _, p := range pkgs {
		rel, err := filepath.Rel(srcAbs, p.Dir)
		if err != nil {
			t.Fatal(err)
		}
		dirs[filepath.ToSlash(rel)] = true
	}
	for dir := range byDir {
		if !dirs[dir] {
			t.Errorf("diagnostics in unexpected directory %q", dir)
		}
	}
	for dir := range dirs {
		goldenPath := filepath.Join("testdata", "src", dir, "expected.txt")
		got := strings.Join(byDir[dir], "\n")
		if got != "" {
			got += "\n"
		}
		if *update {
			if got == "" {
				if err := os.Remove(goldenPath); err != nil && !os.IsNotExist(err) {
					t.Fatal(err)
				}
			} else if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("package %s diagnostics mismatch\n--- got ---\n%s--- want (%s) ---\n%s",
				dir, got, goldenPath, want)
		}
	}
}

// TestPatternSelection checks that package patterns restrict both loading
// and reporting: a ./multi/... run sees only the multi tree, with its
// cross-package import still resolving.
func TestPatternSelection(t *testing.T) {
	pkgs := loadFixtures(t, "./multi/...")
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if len(pkgs) != 2 || pkgs[0].Path != "fixture/multi/a" || pkgs[1].Path != "fixture/multi/b" {
		t.Fatalf("loaded %v, want [fixture/multi/a fixture/multi/b]", paths)
	}
	diags := Run(pkgs, DefaultAnalyzers(), fixtureConfig())
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (one per multi package): %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.HasPrefix(d.File, "multi/") {
			t.Errorf("diagnostic outside ./multi/...: %s", d)
		}
	}
}

// TestSinglePackagePattern checks non-recursive selection.
func TestSinglePackagePattern(t *testing.T) {
	pkgs := loadFixtures(t, "./det")
	if len(pkgs) != 1 || pkgs[0].Path != "fixture/det" {
		t.Fatalf("loaded %d packages, want just fixture/det", len(pkgs))
	}
}

// TestPatternOutsideModule checks that escaping the module root is an
// explicit error, not a silent empty run.
func TestPatternOutsideModule(t *testing.T) {
	if _, err := Load(filepath.Join("testdata", "src"), []string{"../../../.."}); err == nil {
		t.Fatal("expected an error for a pattern outside the module root")
	}
}

// repoPackages loads the whole module once, for the tests that check the
// repository itself.
var repoPackages = sync.OnceValues(func() ([]*Package, error) {
	return Load(filepath.Join("..", ".."), []string{"./..."})
})

// TestRepoIsLintClean is the gate the CI check runs via cmd/lowdifflint:
// the repository itself must stay free of findings under the default
// analyzers and config.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := repoPackages()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, DefaultAnalyzers(), DefaultConfig()) {
		t.Errorf("%s", d)
	}
}

// TestConfigEntriesResolve checks that DefaultConfig names only what the
// module has: every DeterministicPkgs entry covers at least one package,
// and every FloatEqAllowFuncs entry is a declared function. Otherwise a
// renamed package or helper drops out of its rule without a finding.
func TestConfigEntriesResolve(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := repoPackages()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	funcs := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok {
					funcs[funcKey(p, fn)] = true
				}
			}
		}
	}
	for _, entry := range cfg.DeterministicPkgs {
		one := &Config{DeterministicPkgs: []string{entry}}
		covered := false
		for _, p := range pkgs {
			covered = covered || one.deterministic(p.Path)
		}
		if !covered {
			t.Errorf("DeterministicPkgs entry %q matches no package in the module", entry)
		}
	}
	for _, entry := range cfg.FloatEqAllowFuncs {
		if !funcs[entry] {
			t.Errorf("FloatEqAllowFuncs entry %q names no function in the module", entry)
		}
	}
}
