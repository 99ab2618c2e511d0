package lint

// hotalloc: heap allocations inside the configured hot-path set
// (Config.HotPaths), as the Go compiler's own escape analysis reports them.
//
// For each package a HotPaths entry touches, the analyzer runs
//
//	go build -gcflags='<pkg>=-m=2' <pkg>
//
// and keeps every "… escapes to heap" and "moved to heap: x" site, once per
// position (an inlined copy repeats its site, and an allocation inlined from
// a callee is reported at the call). A site inside a hot function is a
// finding unless it is exempt:
//
//   - it sits inside the argument list of a Config.HotAllocCold callee (error
//     formatting, event emission: cold by construction);
//   - it is a fresh result (DESIGN.md §8): its -m=2 flow ends in a result
//     parameter (~rN), or the allocation is a return operand, directly or
//     through the locals (or their fields and elements) it is stored in.
//
// A string constant that -m reports escaping into an interface is not a
// site: the compiler emits it as read-only data. Append growth is invisible
// to -m; the allocation-bound tests of the hot packages (allocgate) cover
// it. A compiler failure is an error, never an empty finding set.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// HotAllocAnalyzer reports heap allocations on configured hot paths.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags heap allocations the compiler's escape analysis (-m=2) reports inside configured hot paths",
	Run:  runHotAlloc,
}

// isHot reports whether a HotPaths entry covers the function key of package
// pkgPath: the whole package ("pkgpath") or the function ("pkgpath.Func",
// "pkgpath.Type.Method"). An empty key asks whether any entry touches pkgPath.
func isHot(entries []string, pkgPath, key string) bool {
	for _, e := range entries {
		if e == pkgPath || e == key || key == "" && strings.HasPrefix(e, pkgPath+".") {
			return true
		}
	}
	return false
}

// diagLine matches a compiler diagnostic: file:line:col: text.
var diagLine = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

func runHotAlloc(pass *Pass) error {
	pkg, hot := pass.Pkg, pass.Config.HotPaths
	if !isHot(hot, pkg.Path, "") {
		return nil
	}
	sites, err := heapSites(pkg)
	if err != nil {
		return err
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHot(hot, pkg.Path, funcKey(pkg, fn)) {
				continue
			}
			exempt := exemptSpans(pkg.Info, fn, pass.Config.HotAllocCold)
			for pos, msg := range sites {
				if pos >= fn.Pos() && pos < fn.End() &&
					!slices.ContainsFunc(exempt, func(sp [2]token.Pos) bool { return sp[0] <= pos && pos <= sp[1] }) {
					pass.Reportf(pos, "hot path %s: %s; reuse pooled scratch, or give a reasoned //lint:allow where a hoist would defeat inlining",
						funcKey(pkg, fn)[strings.LastIndex(pkg.Path, "/")+1:], msg)
				}
			}
		}
	}
	return nil
}

// heapSites builds pkg with -m=2 and returns the message of every heap site
// in its files, one per position, leaving out the sites whose explained
// flow ends in a result and the string constants.
func heapSites(pkg *Package) (map[token.Pos]string, error) {
	args := []string{"build", "-o", os.DevNull, "-gcflags=" + pkg.Path + "=-m=2", pkg.Path}
	_, out, err := runGo(pkg.root, args...)
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	files := map[string]*token.File{}
	for _, f := range pkg.Files {
		files[pkg.Fset.File(f.Pos()).Name()] = pkg.Fset.File(f.Pos())
	}
	sites := map[token.Pos]string{}
	fresh := map[token.Pos]bool{}
	cur, root := token.NoPos, "" // the site whose explanation is being read; its latest flow's left side
	for _, l := range strings.Split(string(out), "\n") {
		m := diagLine.FindStringSubmatch(l)
		if m == nil {
			continue
		}
		if flow, ok := strings.CutPrefix(m[4], "  flow: "); ok {
			root, _, _ = strings.Cut(flow, " = ")
		}
		if strings.HasPrefix(m[4], " ") {
			continue // a flow of the current explanation, or one of its steps
		}
		if strings.HasPrefix(root, "~r") {
			fresh[cur] = true
		}
		cur, root = token.NoPos, ""
		text, header := strings.CutSuffix(m[4], ":")
		if !filepath.IsAbs(m[1]) {
			m[1] = filepath.Join(pkg.root, m[1])
		}
		tf := files[m[1]]
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		if tf == nil || line > tf.LineCount() || strings.HasPrefix(text, `"`) ||
			!strings.HasSuffix(text, " escapes to heap") && !strings.HasPrefix(text, "moved to heap: ") {
			continue
		}
		pos := tf.LineStart(line) + token.Pos(col-1)
		if header {
			cur = pos
		} else if sites[pos] == "" {
			sites[pos] = text
		}
	}
	for pos := range fresh {
		delete(sites, pos)
	}
	return sites, nil
}

// exemptSpans returns fn's cold-callee argument lists (parentheses included:
// an inlined cold callee reports its allocation at the call) and its
// fresh-result expressions: return operands, and every value stored, directly
// or through other locals, into a returned local or named result.
func exemptSpans(info *types.Info, fn *ast.FuncDecl, cold []string) [][2]token.Pos {
	var spans [][2]token.Pos
	results := info.Defs[fn.Name]         // stands for fn's results in stores
	stores := map[ast.Expr]types.Object{} // value -> where it is stored
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isColdCallee(info, n, cold) {
				spans = append(spans, [2]token.Pos{n.Lparen, n.Rparen})
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				stores[r] = results
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Rhs {
					stores[n.Rhs[i]] = info.ObjectOf(lhsBase(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			for i := range n.Values {
				stores[n.Values[i]] = info.Defs[n.Names[i]]
			}
		}
		return true
	})
	returned := map[types.Object]bool{results: true}
	named := results.Type().(*types.Signature).Results()
	for i := range named.Len() {
		returned[named.At(i)] = true
	}
	for again := true; again; {
		again = false
		for val, to := range stores {
			if to != nil && returned[to] {
				spans = append(spans, [2]token.Pos{val.Pos(), val.End()})
				for _, id := range valueIdents(val) {
					returned[info.Uses[id]] = true
				}
				delete(stores, val)
				again = true
			}
		}
	}
	return spans
}

// valueIdents returns the locals whose values e is built from: e itself, or
// the elements of a composite literal, possibly behind &.
func valueIdents(e ast.Expr) []*ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return []*ast.Ident{e}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return valueIdents(e.X)
		}
	case *ast.CompositeLit:
		var ids []*ast.Ident
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			ids = append(ids, valueIdents(elt)...)
		}
		return ids
	}
	return nil
}

// lhsBase strips selector and index chains down to the base identifier of
// an assignment target, or returns nil when there is none.
func lhsBase(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// funcName renders a *types.Func's FullName, "(*pkgpath.Type).Method", as
// "pkgpath.Type.Method", the form of Config entries.
var funcName = strings.NewReplacer("(*", "", "(", "", ")", "")

// isColdCallee reports whether call's callee is listed in cold, by exact key
// ("fmt.Errorf") or as ".Method" for any method of that name.
func isColdCallee(info *types.Info, call *ast.CallExpr, cold []string) bool {
	id, _ := ast.Unparen(call.Fun).(*ast.Ident)
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		id = sel.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return false
	}
	key := funcName.Replace(fn.FullName())
	return slices.Contains(cold, key) || slices.Contains(cold, key[strings.LastIndex(key, "."):])
}
