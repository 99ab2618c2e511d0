package lint

// wgmisuse: sync.WaitGroup protocol violations.
//
//  1. Add inside a spawned goroutine: `go func() { wg.Add(1); ... }()`
//     races with the parent's Wait — the Wait can return before the Add
//     runs. Add must happen-before the go statement.
//  2. Add reachable after Wait on a loop-free path: once Wait returned,
//     a later Add on the same WaitGroup (without an intervening loop
//     back edge — reuse across loop iterations is legal) is almost
//     always a lost count. Reachability runs on the CFG with back edges
//     excluded.
//  3. Copied WaitGroups: assigning or passing a sync.WaitGroup by value
//     splits the counter. (go vet's copylocks covers signatures too.)

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WgMisuseAnalyzer reports WaitGroup misuse: Add inside the spawned
// goroutine, Add after Wait, and by-value copies.
var WgMisuseAnalyzer = &Analyzer{
	Name: "wgmisuse",
	Doc:  "checks sync.WaitGroup protocol: Add before go, no Add after Wait, no value copies",
	Run:  runWgMisuse,
}

func runWgMisuse(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
					checkAddInGoroutine(pass, fl)
				}
			case *ast.AssignStmt:
				checkWgCopy(pass, n)
			}
			return true
		})
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkAddAfterWait(pass, fn.Body)
			}
		}
	}
}

// wgCall decodes sel-based calls to (*sync.WaitGroup).Add/Done/Wait,
// returning the receiver key and method name.
func wgCall(pass *Pass, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return "", "", false
	}
	fn, isFn := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !isWaitGroup(recv.Type()) {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// checkAddInGoroutine flags wg.Add calls lexically inside a go'ed function
// literal (including literals nested deeper inside it — they run after the
// spawn too).
func checkAddInGoroutine(pass *Pass, fl *ast.FuncLit) {
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if key, method, ok := wgCall(pass, call); ok && method == "Add" {
			pass.Reportf(call.Pos(),
				"%s.Add inside the spawned goroutine races with Wait; call Add before the go statement", key)
		}
		return true
	})
}

// checkAddAfterWait reports wg.Add sites reachable from a wg.Wait on the
// same receiver along loop-free CFG paths.
func checkAddAfterWait(pass *Pass, body *ast.BlockStmt) {
	// Collect per-block Wait and Add events first; skip the CFG entirely
	// for the common function that has none.
	type event struct {
		key   string
		add   bool
		pos   token.Pos
		order int // index within the block's node sequence
	}
	g := (*CFG)(nil)
	var blockEvents map[*Block][]event

	collect := func() bool {
		any := false
		blockEvents = map[*Block][]event{}
		for _, b := range g.Blocks {
			for i, n := range b.Nodes {
				inspectShallow(n, func(m ast.Node) bool {
					call, ok := m.(*ast.CallExpr)
					if !ok {
						return true
					}
					if key, method, ok := wgCall(pass, call); ok {
						switch method {
						case "Wait":
							blockEvents[b] = append(blockEvents[b], event{key: key, pos: call.Pos(), order: i})
							any = true
						case "Add":
							blockEvents[b] = append(blockEvents[b], event{key: key, add: true, pos: call.Pos(), order: i})
						}
					}
					return true
				})
			}
		}
		return any
	}

	quick := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, m, ok := wgCall(pass, call); ok && m == "Wait" {
				quick = true
			}
		}
		return true
	})
	if !quick {
		return
	}

	g = buildCFG(body)
	if !collect() {
		return
	}
	back := g.backEdges()
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, key string) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, "%s.Add after %s.Wait on the same path; the waiter has already returned", key, key)
		}
	}

	// Forward reachability from each Wait along non-back edges.
	for b, evs := range blockEvents {
		for _, wait := range evs {
			if wait.add {
				continue
			}
			// Same block, later node.
			for _, e := range evs {
				if e.add && e.key == wait.key && e.order > wait.order {
					report(e.pos, e.key)
				}
			}
			// Downstream blocks.
			seen := map[*Block]bool{b: true}
			stack := []*Block{}
			for _, s := range b.Succs {
				if !back[[2]int{b.Index, s.Index}] {
					stack = append(stack, s)
				}
			}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[cur] {
					continue
				}
				seen[cur] = true
				for _, e := range blockEvents[cur] {
					if e.add && e.key == wait.key {
						report(e.pos, e.key)
					}
				}
				for _, s := range cur.Succs {
					if !back[[2]int{cur.Index, s.Index}] {
						stack = append(stack, s)
					}
				}
			}
		}
	}
}

// checkWgCopy flags assignments that copy a sync.WaitGroup by value.
func checkWgCopy(pass *Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		t := pass.Pkg.Info.Types[rhs].Type
		if t == nil || !isWaitGroup(t) {
			continue
		}
		if _, isPtr := t.(*types.Pointer); isPtr {
			continue
		}
		// Zero-value declarations (var wg sync.WaitGroup handled by
		// ValueSpec without values; composite literals are fresh values,
		// not copies of a live counter).
		if _, isLit := skipParens(rhs).(*ast.CompositeLit); isLit {
			continue
		}
		pass.Reportf(as.Lhs[i].Pos(), "assignment copies a sync.WaitGroup value; use a pointer")
	}
}
