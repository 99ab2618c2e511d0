package lint

// lockbalance: path-sensitive Lock/Unlock pairing over the CFG.
//
// For every function (and every function literal, analyzed as its own
// frame — a goroutine body balances its own locks), the analyzer runs the
// set-of-states solver with one abstract state per path: the LIFO list of
// currently-held sync locks plus the list of pending deferred unlocks.
// At every normal exit the deferred unlocks are applied; any lock still
// held on SOME normal path is reported at its Lock() call site. A second
// check reports re-locking a mutex a path already write-holds
// (self-deadlock).
//
// Deliberate conservatism:
//   - lock identity is the receiver's expression text, so aliases are
//     distinct keys (missed pairs, never false pairs on distinct locks);
//   - an Unlock with no matching held lock is NOT reported — helper
//     functions legitimately unlock what their caller locked;
//   - paths ending in panic/Fatal are ignored;
//   - per-key hold counts are capped (2) and state sets bounded, so the
//     solver always terminates; on blowup the function is skipped.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockBalanceAnalyzer reports sync locks held at a normal function exit on
// some CFG path, and double write-locks on one path.
var LockBalanceAnalyzer = &Analyzer{
	Name: "lockbalance",
	Doc:  "checks Lock/RLock against Unlock/RUnlock (direct or deferred) on every control-flow path",
	Run:  runLockBalance,
}

// lockEvent is one lock-relevant operation found in a CFG node.
type lockEvent struct {
	key    string // receiver expression text, e.g. "w.mu"
	unlock string // matching unlock method name ("Unlock"/"RUnlock") if this is a lock
	isLock bool
	pos    token.Pos
}

// lockState is one path's configuration: held locks (canonical order) and
// pending deferred unlocks. States are immutable — transitions copy.
type lockState struct {
	held   []lockEvent // Lock/RLock acquisitions still unreleased
	defers []string    // keys+kinds of deferred unlocks, in defer order
}

func (s lockState) canon() string {
	var b strings.Builder
	for _, h := range s.held {
		b.WriteString(h.key)
		b.WriteByte('/')
		b.WriteString(h.unlock)
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, d := range s.defers {
		b.WriteString(d)
		b.WriteByte(';')
	}
	return b.String()
}

func runLockBalance(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkLockBalance(pass, fn.Body)
			// Function literals are separate frames (often separate
			// goroutines): balance each body on its own.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					checkLockBalance(pass, fl.Body)
				}
				return true
			})
		}
	}
}

// syncLockCall decodes a call as a sync lock or unlock operation.
// Returns the receiver key, the method name, and whether it resolved to a
// method of package sync.
func syncLockCall(pass *Pass, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	fn, isFn := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

var lockPairs = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

const (
	maxHoldPerKey = 2
	maxLockStates = 64
	maxBodyLocks  = 200 // functions with more lock ops than this are skipped
)

func checkLockBalance(pass *Pass, body *ast.BlockStmt) {
	// Fast pre-scan: skip the solver when the frame has no direct lock
	// calls (function literals' calls belong to their own frames).
	nOps := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, _, ok := syncLockCall(pass, call); ok {
				nOps++
			}
		}
		return true
	})
	if nOps == 0 || nOps > maxBodyLocks {
		return
	}

	g := buildCFG(body)

	// leaked collects Lock sites held at a normal exit; doubles collects
	// re-lock sites. Both deduped by position.
	leaked := map[token.Pos]lockEvent{}
	doubles := map[token.Pos]lockEvent{}

	step := func(n ast.Node, s lockState) lockState {
		events := nodeLockEvents(pass, n)
		if len(events) == 0 {
			return s
		}
		out := lockState{
			held:   append([]lockEvent(nil), s.held...),
			defers: append([]string(nil), s.defers...),
		}
		for _, ev := range events {
			if ev.isLock {
				if ev.unlock == "Unlock" && holdCount(out.held, ev.key, "Unlock") >= 1 {
					doubles[ev.pos] = ev
				}
				if holdCount(out.held, ev.key, ev.unlock) < maxHoldPerKey {
					out.held = append(out.held, ev)
				}
			} else if ev.unlock != "" {
				// Deferred unlock: pending until exit.
				out.defers = append(out.defers, ev.key+"/"+ev.unlock)
			} else {
				out.held = release(out.held, ev.key, ev.pos)
			}
		}
		return out
	}

	in, ok := solveStates(g, lockState{}, lockState.canon, step, maxLockStates)
	if !ok {
		return // state blowup: stay silent rather than guess
	}
	for _, s := range in[g.Exit] {
		held := s.held
		for _, d := range s.defers {
			i := strings.LastIndexByte(d, '/')
			held = release(held, d[:i], token.NoPos)
		}
		for _, h := range held {
			leaked[h.pos] = h
		}
	}

	report := func(m map[token.Pos]lockEvent, format string) {
		pos := make([]token.Pos, 0, len(m))
		for p := range m {
			pos = append(pos, p)
		}
		sort.Slice(pos, func(i, j int) bool { return pos[i] < pos[j] })
		for _, p := range pos {
			ev := m[p]
			method := "Lock"
			if ev.unlock == "RUnlock" {
				method = "RLock"
			}
			pass.Reportf(p, format, ev.key, method, ev.unlock)
		}
	}
	report(leaked, "%s.%s is not released by %s (directly or via defer) on some path to return")
	report(doubles, "%s.%s on a path that already holds the write lock (self-deadlock); %s first")
}

// release pops the newest held lock matching key whose unlock kind fits.
// pos is unused but kept for symmetry with future diagnostics.
func release(held []lockEvent, key string, _ token.Pos) []lockEvent {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == key {
			return append(append([]lockEvent(nil), held[:i]...), held[i+1:]...)
		}
	}
	return held // unlock of un-held lock: caller-owned, ignore
}

func holdCount(held []lockEvent, key, unlock string) int {
	n := 0
	for _, h := range held {
		if h.key == key && h.unlock == unlock {
			n++
		}
	}
	return n
}

// nodeLockEvents extracts the lock operations a CFG node performs, in
// order. Defer of an unlock (either directly or via a literal wrapper
// like `defer func() { mu.Unlock() }()`) becomes a pending-unlock event.
func nodeLockEvents(pass *Pass, n ast.Node) []lockEvent {
	var events []lockEvent
	if d, ok := n.(*ast.DeferStmt); ok {
		if key, method, ok := syncLockCall(pass, d.Call); ok {
			if method == "Unlock" || method == "RUnlock" {
				events = append(events, lockEvent{key: key, unlock: method, pos: d.Pos()})
			}
			return events
		}
		if fl, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if key, method, ok := syncLockCall(pass, call); ok &&
					(method == "Unlock" || method == "RUnlock") {
					events = append(events, lockEvent{key: key, unlock: method, pos: d.Pos()})
				}
				return true
			})
		}
		return events
	}
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, method, ok := syncLockCall(pass, call)
		if !ok {
			return true
		}
		if pair, isLock := lockPairs[method]; isLock {
			events = append(events, lockEvent{key: key, unlock: pair, isLock: true, pos: call.Pos()})
		} else {
			events = append(events, lockEvent{key: key, pos: call.Pos()})
		}
		return true
	})
	return events
}
