package lint

// A small forward dataflow solver over CFGs.
//
// The abstract domain is a *set of path states*: each block's input is the
// set of distinct states that reach it along some path, and the transfer
// function advances one state across one node. Joins are set unions, so
// the solver is path-sensitive up to state dedup — exactly what
// lockbalance needs ("held on SOME path") without a meet operator.
//
// Termination: states are canonicalized to strings and deduplicated; the
// solver aborts (ok=false) if any block's state set exceeds maxStates or
// the total work exceeds a fixed budget. Clients must keep their state
// spaces finite (lockbalance caps per-mutex hold counts) and treat an
// abort as "no findings for this function".

import "go/ast"

// solveStates runs the forward solver.
//
//   - entry:  the single state at function entry
//   - canon:  canonical string key for a state (used for dedup and
//     fixpoint detection)
//   - step:   advances one state across one Block node; a nil canon-equal
//     result is fine (states are immutable values from the solver's view:
//     step must not mutate its argument's shared storage)
//   - maxStates: per-block cap on distinct states before aborting
//
// It returns the set of states flowing into each block (keyed by canon)
// and ok=false if the analysis blew its budget.
func solveStates[S any](g *CFG, entry S, canon func(S) string, step func(n ast.Node, s S) S, maxStates int) (in map[*Block]map[string]S, ok bool) {
	in = make(map[*Block]map[string]S, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = map[string]S{}
	}
	in[g.Entry][canon(entry)] = entry

	worklist := []*Block{g.Entry}
	queued := map[*Block]bool{g.Entry: true}
	budget := 200000
	for len(worklist) > 0 {
		b := worklist[0]
		worklist = worklist[1:]
		queued[b] = false

		for _, s := range in[b] {
			// Advance this state across the block's nodes.
			out := s
			for _, n := range b.Nodes {
				out = step(n, out)
				if budget--; budget < 0 {
					return in, false
				}
			}
			key := canon(out)
			for _, succ := range b.Succs {
				set := in[succ]
				if _, seen := set[key]; seen {
					continue
				}
				if len(set) >= maxStates {
					return in, false
				}
				set[key] = out
				if !queued[succ] {
					queued[succ] = true
					worklist = append(worklist, succ)
				}
			}
		}
	}
	return in, true
}

// inspectShallow walks n's subtree the way CFG clients must: it does not
// descend into nested statement bodies (BlockStmt) or function literals,
// because those execute in other blocks (or other goroutines/frames).
// Expressions added to a block — conditions, range operands, case
// expressions — and flat statements are walked fully.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		}
		if m == nil {
			return true
		}
		return f(m)
	})
}
