package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CheckedErrAnalyzer flags error results that are silently discarded on
// the persistence-critical surface: Write*/Close/Sync/Flush/Encode on
// writers, and Delete/Remove/Rename on stores and the filesystem. On a
// checkpoint path, a dropped write or close error means the trainer
// believes state persisted when it did not — silent durability loss that
// only surfaces as an unrecoverable chain after a crash.
//
// Two shapes are reported:
//
//   - a bare call statement discarding an error result, e.g. `w.Close()`;
//   - `defer w.Close()` on a value with a Write method: the deferred
//     error vanishes, and for atomic-rename stores Close is the commit.
//
// Explicitly assigning the error away (`_ = w.Close()`) is accepted as a
// deliberate, reviewable decision. bytes.Buffer, strings.Builder, and the
// hash.Hash interfaces are exempt: their Write methods are documented to
// never fail.
var CheckedErrAnalyzer = &Analyzer{
	Name: "checkederr",
	Doc: "flag dropped error results from writes, Close, Sync, and " +
		"deletes on persistence paths",
	Run: runCheckedErr,
}

func runCheckedErr(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := calleeName(call)
				if !watchedErrFunc(name) || !returnsError(pass.Pkg.Info, call) ||
					infallibleWrite(pass.Pkg, call) {
					return true
				}
				pass.Reportf(n.Pos(),
					"error result of %s is dropped; on a persistence path this is silent durability loss — handle it or assign it to _ explicitly",
					callDesc(call, name))
			case *ast.DeferStmt:
				call := n.Call
				if calleeName(call) != "Close" || !returnsError(pass.Pkg.Info, call) {
					return true
				}
				if recv, ok := receiverType(pass.Pkg.Info, call); ok && hasWriteMethod(pass.Pkg, recv) {
					pass.Reportf(n.Pos(),
						"defer discards the Close error of %s, a writer; Close is the commit point for atomic stores — capture the error instead",
						callDesc(call, "Close"))
				}
			}
			return true
		})
	}
	return nil
}

// watchedErrFunc reports whether name is on the persistence-critical
// surface whose error results must not be dropped.
func watchedErrFunc(name string) bool {
	switch name {
	case "Close", "Sync", "Flush", "Encode", "Delete", "Remove", "RemoveAll", "Rename":
		return true
	}
	return strings.HasPrefix(name, "Write")
}

// calleeName extracts the called function or method name, or "".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// callDesc renders a short human-readable description of the call site.
func callDesc(call *ast.CallExpr, name string) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			return x.Name + "." + name
		}
		return "(...)." + name
	}
	return name
}

// returnsError reports whether the call's last result is error.
func returnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// receiverType resolves the type of the receiver expression of a method
// call; ok is false for plain function calls and package selectors.
func receiverType(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
			return nil, false
		}
	}
	t := info.TypeOf(sel.X)
	return t, t != nil
}

// hasWriteMethod reports whether t (or *t) has a Write method, marking it
// as a writer whose Close error carries the fate of buffered data.
func hasWriteMethod(pkg *Package, t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, pkg.Types, "Write")
	_, ok := obj.(*types.Func)
	return ok
}

// infallibleWrite reports whether call is a write on a type whose Write
// is documented to never return a non-nil error: bytes.Buffer,
// strings.Builder, and the hash.Hash interface family.
func infallibleWrite(pkg *Package, call *ast.CallExpr) bool {
	recv, ok := receiverType(pkg.Info, call)
	if !ok {
		return false
	}
	if p, isPtr := recv.(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "hash":
		return true
	case "bytes":
		return named.Obj().Name() == "Buffer"
	case "strings":
		return named.Obj().Name() == "Builder"
	}
	return false
}
