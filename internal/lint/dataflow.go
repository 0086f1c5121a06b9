package lint

import (
	"go/ast"
	"go/types"
)

// Dataflow utilities over the per-function CFGs (cfg.go). Two flavors feed
// the flow-sensitive analyzers:
//
//   - a forward path explorer classifying every path from a definition
//     (read first? redefined first? reached function exit unread?), which
//     pathcheck's "unchecked on some path" rule quantifies over;
//   - a reaching-facts fixpoint propagating per-variable facts (unit
//     dimensions) through blocks, with set-intersection meet at joins so a
//     fact only survives when every incoming path agrees.

// nodeReads reports whether executing node n reads variable v. Writes are
// excluded: an identifier that is the target of an assignment is not a
// read, but `v = f(v)` reads v on the right-hand side. References from
// inside a func literal count as reads (the closure may run at any time),
// and a *ast.RangeStmt header node only considers its X/Key/Value — the
// body lives in other blocks.
func nodeReads(pass *Pass, n ast.Node, v *types.Var) bool {
	writes := map[*ast.Ident]bool{}
	markWrites(n, writes)
	found := false
	walk := func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if writes[id] {
			return true
		}
		if pass.Info.ObjectOf(id) == v {
			found = true
		}
		return true
	}
	if rng, ok := n.(*ast.RangeStmt); ok {
		ast.Inspect(rng.X, walk)
		return found
	}
	ast.Inspect(n, walk)
	return found
}

// nodeWrites reports whether executing node n assigns variable v: v appears
// as an assignment target, an IncDec operand, or a range Key/Value. A short
// declaration introducing a fresh object shadowing v is not a write to v
// (ObjectOf resolves to the new object). Writes from inside func literals
// are ignored — the closure's execution time is unknown, so treating them
// as definite kills would be unsound for both path analyses; the callers
// skip closure-captured variables entirely.
func nodeWrites(pass *Pass, n ast.Node, v *types.Var) bool {
	writes := map[*ast.Ident]bool{}
	markWrites(n, writes)
	for id := range writes {
		if pass.Info.ObjectOf(id) == v {
			return true
		}
	}
	return false
}

// markWrites collects the identifiers node n assigns to, at the node's own
// level only (not inside nested func literals).
func markWrites(n ast.Node, out map[*ast.Ident]bool) {
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			out[id] = true
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			mark(lhs)
		}
	case *ast.IncDecStmt:
		mark(n.X)
	case *ast.RangeStmt:
		if n.Key != nil {
			mark(n.Key)
		}
		if n.Value != nil {
			mark(n.Value)
		}
	}
}

// pathFates summarizes every path leaving a definition point.
type pathFates struct {
	// UnreadRedef: some path overwrites the variable without reading it;
	// the node performing the overwrite, for diagnostics.
	UnreadRedef ast.Node
	// UnreadExit: some path reaches the function exit without a read.
	UnreadExit bool
}

// explorePaths walks every CFG path forward from just after node index
// start in block from, classifying each path's first interaction with v.
// Paths that loop back to an already-entered block stop (no new facts).
func explorePaths(pass *Pass, g *funcCFG, from *block, start int, v *types.Var) pathFates {
	var fates pathFates
	entered := make([]bool, len(g.blocks))
	var visit func(b *block, idx int)
	visit = func(b *block, idx int) {
		for j := idx; j < len(b.nodes); j++ {
			n := b.nodes[j]
			if nodeReads(pass, n, v) {
				return
			}
			if nodeWrites(pass, n, v) {
				if fates.UnreadRedef == nil {
					fates.UnreadRedef = n
				}
				return
			}
		}
		if b == g.exit {
			fates.UnreadExit = true
			return
		}
		if len(b.succs) == 0 {
			// Dangling block (e.g. infinite loop with no break): the
			// variable is never consumed past this point.
			fates.UnreadExit = true
			return
		}
		for _, s := range b.succs {
			if !entered[s.index] {
				entered[s.index] = true
				visit(s, 0)
			}
		}
	}
	visit(from, start)
	return fates
}

// capturedVars returns the set of local variables referenced from inside
// any func literal of the body: their lifetimes escape straight-line
// analysis, so the path analyses skip them.
func capturedVars(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := pass.Info.ObjectOf(id).(*types.Var); ok {
					out[v] = true
				}
			}
			return true
		})
		return true
	})
	return out
}

// ---- reaching facts: per-variable string facts with intersection meet ----

// factEnv maps a variable to one fact (for unitflow: its dimension).
type factEnv map[*types.Var]string

func (e factEnv) clone() factEnv {
	c := make(factEnv, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

func (e factEnv) equal(o factEnv) bool {
	if len(e) != len(o) {
		return false
	}
	for k, v := range e {
		if ov, ok := o[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// meet intersects two environments: a fact survives a join only if both
// paths agree on it. nil means "not yet computed" and acts as identity.
func meet(a, b factEnv) factEnv {
	if a == nil {
		return b.clone()
	}
	out := factEnv{}
	for k, v := range a {
		if bv, ok := b[k]; ok && bv == v {
			out[k] = v
		}
	}
	return out
}

// transferFunc folds one node into an environment, returning the updated
// environment (may mutate in place).
type transferFunc func(env factEnv, n ast.Node) factEnv

// forwardFixpoint computes the environment at the entry of every block by
// iterating the transfer function to a fixed point. Entry starts empty;
// unreached blocks keep a nil (⊤) in-state that never constrains a join.
func forwardFixpoint(g *funcCFG, transfer transferFunc) []factEnv {
	in := make([]factEnv, len(g.blocks))
	out := make([]factEnv, len(g.blocks))
	in[g.entry.index] = factEnv{}

	work := []*block{g.entry}
	queued := make([]bool, len(g.blocks))
	queued[g.entry.index] = true
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b.index] = false

		env := in[b.index].clone()
		for _, n := range b.nodes {
			env = transfer(env, n)
		}
		if out[b.index] != nil && out[b.index].equal(env) {
			continue
		}
		out[b.index] = env
		for _, s := range b.succs {
			merged := meet(in[s.index], env)
			if in[s.index] == nil || !in[s.index].equal(merged) {
				in[s.index] = merged
				if !queued[s.index] {
					queued[s.index] = true
					work = append(work, s)
				}
			}
		}
	}
	return in
}

// funcBodies yields every function/method body in the package's files,
// including the enclosing declaration for context.
func funcBodies(pass *Pass, visit func(decl *ast.FuncDecl)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}

// assignTargets pairs each LHS of an assignment with its RHS expression
// when the statement assigns 1:1 (a, b = x, y) and returns nil for the
// multi-value forms (a, b = f()) where per-target RHS expressions do not
// exist.
func assignTargets(a *ast.AssignStmt) [][2]ast.Expr {
	if len(a.Lhs) != len(a.Rhs) {
		return nil
	}
	pairs := make([][2]ast.Expr, 0, len(a.Lhs))
	for i := range a.Lhs {
		pairs = append(pairs, [2]ast.Expr{a.Lhs[i], a.Rhs[i]})
	}
	return pairs
}

// lhsVar resolves an assignment target to the local variable it names, or
// nil for blank, fields, indexes and dereferences.
func lhsVar(pass *Pass, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	v, _ := pass.Info.ObjectOf(id).(*types.Var)
	return v
}
