package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatEqAnalyzer flags == and != between floating-point operands outside
// the allowlisted bit-exact comparison helpers. LowDiff's recovery
// guarantee is *bit-exact* equality of the recovered state; validating it
// with approximate float equality (or breaking it with an accidental
// `a == b` that is false for equal-but-differently-rounded values, or
// true for +0/-0, or false for NaN==NaN) corrupts the invariant the whole
// differential scheme rests on. Compare bit patterns
// (math.Float64bits(a) == math.Float64bits(b)) inside a designated helper,
// or use an explicit tolerance.
//
// Comparisons where either operand is a compile-time constant are exempt:
// `x == 0` is a well-defined predicate on x's value (the zero-default
// idiom), not a comparison of two rounded computations — the hazard this
// rule exists for.
var FloatEqAnalyzer = &Analyzer{
	Name: "floateq",
	Doc: "flag ==/!= on float operands outside allowlisted bit-exact " +
		"comparison helpers",
	Run: runFloatEq,
}

func runFloatEq(pass *Pass) error {
	allowed := make(map[string]bool, len(pass.Config.FloatEqAllowFuncs))
	for _, fn := range pass.Config.FloatEqAllowFuncs {
		allowed[fn] = true
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil || allowed[funcKey(pass.Pkg, d)] {
					continue
				}
				checkFloatEq(pass, d.Body)
			case *ast.GenDecl:
				// Package-level initializers have no enclosing function
				// and are never allowlisted.
				checkFloatEq(pass, d)
			}
		}
	}
	return nil
}

func checkFloatEq(pass *Pass, root ast.Node) {
	info := pass.Pkg.Info
	ast.Inspect(root, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if !isFloat(info.TypeOf(be.X)) && !isFloat(info.TypeOf(be.Y)) {
			return true
		}
		if isConstant(info, be.X) || isConstant(info, be.Y) {
			return true
		}
		pass.Reportf(be.OpPos,
			"%s on float operands is not a bit-exact comparison; use an allowlisted helper over math.Float64bits/Float32bits or an explicit tolerance",
			be.Op)
		return true
	})
}

func isConstant(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// funcKey renders a declared function as "pkgpath.Func" or
// "pkgpath.Type.Method" for allowlist matching.
func funcKey(pkg *Package, d *ast.FuncDecl) string {
	key := pkg.Path + "."
	if d.Recv != nil && len(d.Recv.List) > 0 {
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			key += id.Name + "."
		}
	}
	return key + d.Name.Name
}
