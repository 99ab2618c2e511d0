package lint

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fixture golden files")

// fixtureConfig mirrors DefaultConfig for the fixture module: multi/ and
// det/ are declared deterministic, floats/ provides the allowlisted
// bit-exact helpers, hotalloc/ is hot as a whole package while hotfunc/
// is hot only at one function, and fmt.Errorf plays the configured-cold
// callee.
func fixtureConfig() *Config {
	return &Config{
		DeterministicPkgs: []string{"fixture/det", "fixture/multi"},
		FloatEqAllowFuncs: []string{
			"fixture/floats.BitEqual",
			"fixture/floats.Vec.BitEq",
		},
		HotPaths:     []string{"fixture/hotalloc", "fixture/hotfunc.Step"},
		HotAllocCold: []string{"fmt.Errorf"},
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
	diags, err := Run(pkgs, DefaultAnalyzers(), fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}

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
	diags, err := Run(pkgs, DefaultAnalyzers(), fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
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

// TestRepoIsLintClean is the gate the CI check runs via cmd/lowdifflint:
// the repository itself must stay free of findings under the default
// analyzers and config.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, DefaultAnalyzers(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestCompilerFailureIsLoud checks that hotalloc without a working compiler
// fails the run with the compiler's output instead of reporting nothing.
func TestCompilerFailureIsLoud(t *testing.T) {
	pkgs := loadFixtures(t, "./hotalloc")
	defer func(orig func(string, ...string) ([]byte, []byte, error)) { runGo = orig }(runGo)
	for name, fail := range map[string]func(string, ...string) ([]byte, []byte, error){
		"missing": func(string, ...string) ([]byte, []byte, error) {
			return nil, nil, exec.ErrNotFound
		},
		"failing": func(string, ...string) ([]byte, []byte, error) {
			return nil, []byte("hotalloc/hotalloc.go:1:1: compiler says no"), errors.New("exit status 1")
		},
	} {
		runGo = fail
		diags, err := Run(pkgs, DefaultAnalyzers(), fixtureConfig())
		if err == nil {
			t.Fatalf("%s compiler: no error, %d findings", name, len(diags))
		}
		if name == "failing" && !strings.Contains(err.Error(), "compiler says no") {
			t.Errorf("failing compiler: error %q does not carry its output", err)
		}
	}
}
