package lint

// Control-flow graphs over function bodies.
//
// buildCFG lowers one function body (a *ast.BlockStmt) into basic blocks
// with successor edges. The lowering is deliberately small and
// intra-procedural:
//
//   - if / for / range / switch / type-switch / select produce the obvious
//     branch and loop edges, including break/continue (labeled and
//     unlabeled), fallthrough, and goto;
//   - return edges to the synthetic Exit block;
//   - calls to panic (and testing Fatal-style helpers) edge to the
//     synthetic Panic block, so abnormal paths do not pollute must-style
//     analyses such as lockbalance;
//   - defer statements stay in their block as ordinary nodes; analyses
//     that care (lockbalance) record them as pending exit effects;
//   - nested function literals are NOT inlined — each analyzer decides
//     whether to recurse into them with a fresh CFG.
//
// Blocks carry the statements and branch-condition expressions that
// execute in them, in execution order, so a node-level transfer function
// sees effects in the order the program performs them.

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a straight-line run of AST nodes followed by
// zero or more successor edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of a single function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the unique normal-exit block: returns and falling off the
	// end of the body edge here.
	Exit *Block
	// Panic is the unique abnormal-exit block: panic() and t.Fatal-style
	// terminators edge here. It has no successors.
	Panic *Block
}

type loopFrame struct {
	label   string
	breakTo *Block
	contTo  *Block // nil for switch/select frames (continue skips them)
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block // nil while the current point is unreachable
	frames []loopFrame
	labels map[string]*Block // goto / labeled-statement targets
	gotos  map[string][]*Block
}

// buildCFG lowers body into a CFG. body may be nil (declared-only
// functions), in which case the graph is just Entry→Exit.
func buildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &cfgBuilder{
		g:      g,
		labels: map[string]*Block{},
		gotos:  map[string][]*Block{},
	}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	g.Panic = b.newBlock()
	b.cur = g.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edgeTo(g.Exit)
	// Resolve forward gotos recorded before their label was seen.
	for name, srcs := range b.gotos {
		if dst, ok := b.labels[name]; ok {
			for _, src := range srcs {
				src.Succs = append(src.Succs, dst)
			}
		}
	}
	return g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// edgeTo adds an edge cur→dst if the current point is reachable.
func (b *cfgBuilder) edgeTo(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
}

// moveTo finishes the current block and continues in dst.
func (b *cfgBuilder) moveTo(dst *Block) {
	b.edgeTo(dst)
	b.cur = dst
}

func (b *cfgBuilder) add(n ast.Node) {
	if b.cur != nil && n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// terminators that divert control to the Panic block. Matching is
// syntactic on purpose: panic(...) and x.Fatal/x.Fatalf/log.Fatal* are
// the shapes that occur in practice, and a missed terminator only makes
// downstream analyses more conservative.
func isAbnormalTerminator(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "Fatalln", "Exit":
			return true
		}
	}
	return false
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	if b.cur == nil {
		// Unreachable code: still lower it (so its nodes are visited by
		// purely syntactic checks elsewhere) into a detached block.
		b.cur = b.newBlock()
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		dst := b.newBlock()
		b.labels[s.Label.Name] = dst
		b.moveTo(dst)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.g.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && isAbnormalTerminator(call) {
			b.add(s)
			b.edgeTo(b.g.Panic)
			b.cur = nil
			return
		}
		b.add(s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Cond)
		condBlk := b.cur
		after := b.newBlock()

		thenBlk := b.newBlock()
		condBlk.Succs = append(condBlk.Succs, thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body, "")
		b.edgeTo(after)

		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.Succs = append(condBlk.Succs, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else, "")
			b.edgeTo(after)
		} else {
			condBlk.Succs = append(condBlk.Succs, after)
		}
		b.cur = after

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		post := head
		if s.Post != nil {
			post = b.newBlock()
		}
		b.moveTo(head)
		if s.Cond != nil {
			b.add(s.Cond)
			head.Succs = append(head.Succs, body, after)
		} else {
			head.Succs = append(head.Succs, body)
		}
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after, contTo: post})
		b.cur = body
		b.stmt(s.Body, "")
		if s.Post != nil {
			b.moveTo(post)
			b.stmt(s.Post, "")
		}
		b.edgeTo(head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after

	case *ast.RangeStmt:
		head := b.newBlock()
		body := b.newBlock()
		after := b.newBlock()
		b.moveTo(head)
		b.add(s) // range operand + key/value binding; Body is lowered below
		head.Succs = append(head.Succs, body, after)
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after, contTo: head})
		b.cur = body
		b.stmt(s.Body, "")
		b.edgeTo(head)
		b.frames = b.frames[:len(b.frames)-1]
		b.cur = after

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, false)

	case *ast.SelectStmt:
		head := b.cur
		after := b.newBlock()
		b.frames = append(b.frames, loopFrame{label: label, breakTo: after})
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock()
			head.Succs = append(head.Succs, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm, "")
			}
			b.stmtList(comm.Body)
			b.edgeTo(after)
		}
		b.frames = b.frames[:len(b.frames)-1]
		if len(s.Body.List) == 0 {
			// Empty select blocks forever.
			head.Succs = append(head.Succs, b.g.Panic)
		}
		b.cur = after

	case *ast.DeferStmt, *ast.GoStmt, *ast.SendStmt, *ast.IncDecStmt,
		*ast.AssignStmt, *ast.DeclStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		b.add(s)
	}
}

// switchClauses lowers the case clauses of a (type) switch. hasFallthrough
// tells whether fallthrough is legal (expression switches only).
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label string, hasFallthrough bool) {
	head := b.cur
	after := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: after})

	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		bodies[i] = b.newBlock()
		head.Succs = append(head.Succs, bodies[i])
		for _, e := range cc.List {
			bodies[i].Nodes = append(bodies[i].Nodes, e)
		}
	}
	if !hasDefault {
		head.Succs = append(head.Succs, after)
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = bodies[i]
		fell := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && hasFallthrough {
				if i+1 < len(bodies) {
					b.edgeTo(bodies[i+1])
				}
				b.cur = nil
				fell = true
				break
			}
			b.stmt(st, "")
		}
		if !fell {
			b.edgeTo(after)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if name == "" || f.label == name {
				b.edgeTo(f.breakTo)
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.contTo == nil {
				continue // switch/select frame: continue targets the loop outside
			}
			if name == "" || f.label == name {
				b.edgeTo(f.contTo)
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case token.GOTO:
		if dst, ok := b.labels[name]; ok {
			b.edgeTo(dst)
		} else if b.cur != nil {
			b.gotos[name] = append(b.gotos[name], b.cur)
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled in switchClauses; a stray fallthrough ends the block.
		b.cur = nil
	}
}
