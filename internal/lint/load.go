package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package from the loaded module.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test sources, in filename order
	Types *types.Package
	Info  *types.Info

	root string // module root, for relative diagnostic paths
}

// Position resolves pos to a module-root-relative file path, line, and column.
func (p *Package) Position(pos token.Pos) (file string, line, col int) {
	ps := p.Fset.Position(pos)
	file = ps.Filename
	if rel, err := filepath.Rel(p.root, ps.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return file, ps.Line, ps.Column
}

// runGo runs the go command in dir. Tests replace it to stand in for a
// missing or failing toolchain.
var runGo = func(dir string, args ...string) (stdout, stderr []byte, err error) {
	var o, e bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &o, &e
	err = cmd.Run()
	return o.Bytes(), e.Bytes(), err
}

// Load returns the packages of the module containing dir that the go-style
// patterns ("./...", "./sub/...", "./sub", ".") match, resolved relative to
// dir. `go list -deps -export` resolves the patterns and compiles every
// dependency; each matched package's non-test sources are then parsed and
// type-checked against that export data. Test files are not loaded: the
// invariants the analyzers enforce guard production code paths, and tests
// legitimately use wall clocks and drop errors.
func Load(dir string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	out, stderr, err := runGo(dir, append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr)
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	var pkgs []*Package
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath, Dir, Export string
			GoFiles                 []string
			DepOnly                 bool
			Module                  *struct{ Dir string }
		}
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		exports[lp.ImportPath] = lp.Export
		if lp.DepOnly || lp.Module == nil || len(lp.GoFiles) == 0 {
			continue
		}
		p := &Package{Path: lp.ImportPath, Dir: lp.Dir, Fset: fset, root: lp.Module.Dir}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.Files = append(p.Files, f)
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint: no packages match %v under %s", patterns, dir)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	for _, p := range pkgs {
		p.Info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		if p.Types, err = conf.Check(p.Path, fset, p.Files, p.Info); err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %w", p.Path, err)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}
