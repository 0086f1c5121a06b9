package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Control-flow graphs, built per function body over the plain AST. The
// graphs feed the dataflow framework (dataflow.go) that unitflow and
// pathcheck run on: per-node AST heuristics cannot see that an error is
// checked on one branch but overwritten on the other, or that a
// joule-dimensioned local flows into a milliwatt comparison three blocks
// later. Only the standard library is used, mirroring how the rest of the
// framework avoids golang.org/x/tools.
//
// A block holds "atomic" nodes in execution order: simple statements
// (assignments, expression statements, sends, declarations) and the
// condition/tag/range-header expressions of the control statements that
// shaped the graph. Compound bodies never appear inside a block's node
// list, with two deliberate exceptions the dataflow walkers special-case:
//
//   - *ast.RangeStmt appears as a loop-header node (its Body lives in
//     successor blocks; walkers must skip it);
//   - *ast.FuncLit subtrees stay embedded in whatever node contains them
//     (a closure body executes at an unknown time, so walkers treat any
//     reference from inside one as an opaque read).

// block is one basic block: a maximal straight-line node sequence with
// edges to every possible successor.
type block struct {
	index int
	nodes []ast.Node
	succs []*block
}

// funcCFG is the control-flow graph of a single function body. exit is a
// synthetic empty block every return, panic and fall-off-the-end reaches.
type funcCFG struct {
	entry, exit *block
	blocks      []*block
}

// labelInfo tracks one label: the block a goto jumps to, and — when the
// label names a loop, switch or select — the blocks a labeled break or
// continue targets.
type labelInfo struct {
	entry     *block
	brk, cont *block
}

type cfgBuilder struct {
	pass      *Pass
	blocks    []*block
	exit      *block
	breaks    []*block // innermost last
	continues []*block
	fallto    []*block // fallthrough target stack (next case body)
	labels    map[string]*labelInfo
	pending   *labelInfo // label awaiting its loop/switch registration
}

// buildCFG constructs the graph for one function body.
func buildCFG(pass *Pass, body *ast.BlockStmt) *funcCFG {
	b := &cfgBuilder{pass: pass, labels: map[string]*labelInfo{}}
	entry := b.newBlock()
	b.exit = b.newBlock()
	if last := b.stmtList(entry, body.List); last != nil {
		b.edge(last, b.exit)
	}
	return &funcCFG{entry: entry, exit: b.exit, blocks: b.blocks}
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{index: len(b.blocks)}
	b.blocks = append(b.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *block) {
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

func (b *cfgBuilder) label(name string) *labelInfo {
	li, ok := b.labels[name]
	if !ok {
		li = &labelInfo{entry: b.newBlock()}
		b.labels[name] = li
	}
	return li
}

// takePending consumes the label waiting to be bound to the statement being
// built, so `L: for ...` registers L's break/continue targets.
func (b *cfgBuilder) takePending() *labelInfo {
	pl := b.pending
	b.pending = nil
	return pl
}

func (b *cfgBuilder) stmtList(cur *block, list []ast.Stmt) *block {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after return/break/goto still gets blocks so
			// the analyzers see its defs and uses, matching the compiler's
			// own tolerance of dead code.
			cur = b.newBlock()
		}
		cur = b.stmt(cur, s)
	}
	return cur
}

// stmt wires statement s starting at cur and returns the block where
// control continues, or nil when s never falls through.
func (b *cfgBuilder) stmt(cur *block, s ast.Stmt) *block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		then := b.newBlock()
		after := b.newBlock()
		b.edge(cur, then)
		if end := b.stmt(then, s.Body); end != nil {
			b.edge(end, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			b.edge(cur, els)
			if end := b.stmt(els, s.Else); end != nil {
				b.edge(end, after)
			}
		} else {
			b.edge(cur, after)
		}
		return after

	case *ast.ForStmt:
		pl := b.takePending()
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		head := b.newBlock()
		b.edge(cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
		}
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, after)
		}
		post := head
		if s.Post != nil {
			post = b.newBlock()
			if end := b.stmt(post, s.Post); end != nil {
				b.edge(end, head)
			}
		}
		if pl != nil {
			pl.brk, pl.cont = after, post
		}
		b.breaks = append(b.breaks, after)
		b.continues = append(b.continues, post)
		end := b.stmt(body, s.Body)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		if end != nil {
			b.edge(end, post)
		}
		return after

	case *ast.RangeStmt:
		pl := b.takePending()
		head := b.newBlock()
		b.edge(cur, head)
		head.nodes = append(head.nodes, s) // header only; walkers skip s.Body
		body := b.newBlock()
		after := b.newBlock()
		b.edge(head, body)
		b.edge(head, after)
		if pl != nil {
			pl.brk, pl.cont = after, head
		}
		b.breaks = append(b.breaks, after)
		b.continues = append(b.continues, head)
		end := b.stmt(body, s.Body)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		if end != nil {
			b.edge(end, head)
		}
		return after

	case *ast.SwitchStmt:
		pl := b.takePending()
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		return b.switchClauses(cur, pl, s.Body.List, true)

	case *ast.TypeSwitchStmt:
		pl := b.takePending()
		if s.Init != nil {
			cur = b.stmt(cur, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.switchClauses(cur, pl, s.Body.List, false)

	case *ast.SelectStmt:
		pl := b.takePending()
		after := b.newBlock()
		if pl != nil {
			pl.brk = after
		}
		b.breaks = append(b.breaks, after)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			cb := b.newBlock()
			b.edge(cur, cb)
			if cc.Comm != nil {
				cb.nodes = append(cb.nodes, cc.Comm)
			}
			if end := b.stmtList(cb, cc.Body); end != nil {
				b.edge(end, after)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		return after

	case *ast.LabeledStmt:
		li := b.label(s.Label.Name)
		b.edge(cur, li.entry)
		b.pending = li
		next := b.stmt(li.entry, s.Stmt)
		b.pending = nil
		return next

	case *ast.BranchStmt:
		return b.branch(cur, s)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		b.edge(cur, b.exit)
		return nil

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.terminates(call) {
			b.edge(cur, b.exit)
			return nil
		}
		return cur

	case *ast.EmptyStmt:
		return cur

	default:
		// Assign, IncDec, Send, Decl, Defer, Go: straight-line nodes.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchClauses wires the case clauses of a switch or type switch. Guard
// expressions live in each case's block; fallthrough jumps to the next
// case's block (guards included — a harmless imprecision, guards only read).
func (b *cfgBuilder) switchClauses(cur *block, pl *labelInfo, clauses []ast.Stmt, allowFall bool) *block {
	after := b.newBlock()
	if pl != nil {
		pl.brk = after
	}
	caseBlocks := make([]*block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		cb := b.newBlock()
		b.edge(cur, cb)
		for _, e := range cc.List {
			cb.nodes = append(cb.nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		caseBlocks[i] = cb
	}
	if !hasDefault {
		b.edge(cur, after)
	}
	b.breaks = append(b.breaks, after)
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		fall := after
		if allowFall && i+1 < len(clauses) {
			fall = caseBlocks[i+1]
		}
		b.fallto = append(b.fallto, fall)
		if end := b.stmtList(caseBlocks[i], cc.Body); end != nil {
			b.edge(end, after)
		}
		b.fallto = b.fallto[:len(b.fallto)-1]
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	return after
}

func (b *cfgBuilder) branch(cur *block, s *ast.BranchStmt) *block {
	target := b.exit // malformed code falls back to exit, never panics
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			if li := b.label(s.Label.Name); li.brk != nil {
				target = li.brk
			}
		} else if len(b.breaks) > 0 {
			target = b.breaks[len(b.breaks)-1]
		}
	case token.CONTINUE:
		if s.Label != nil {
			if li := b.label(s.Label.Name); li.cont != nil {
				target = li.cont
			}
		} else if len(b.continues) > 0 {
			target = b.continues[len(b.continues)-1]
		}
	case token.GOTO:
		target = b.label(s.Label.Name).entry
	case token.FALLTHROUGH:
		if len(b.fallto) > 0 {
			target = b.fallto[len(b.fallto)-1]
		}
	}
	b.edge(cur, target)
	return nil
}

// terminates reports whether a call never returns: panic, os.Exit,
// log.Fatal*, runtime.Goexit and (*testing.common)-style Fatal methods.
// The panic edge still runs deferred handlers, but for the lint analyses a
// path ending in panic(err) has consumed the error.
func (b *cfgBuilder) terminates(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if bi, ok := b.pass.Info.Uses[id].(*types.Builtin); ok && bi.Name() == "panic" {
			return true
		}
	}
	fn := calleeFunc(b.pass, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "os":
			return name == "Exit"
		case "runtime":
			return name == "Goexit"
		case "log":
			return name == "Fatal" || name == "Fatalf" || name == "Fatalln"
		}
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return name == "Fatal" || name == "Fatalf" || name == "FailNow" || name == "Skip" || name == "Skipf" || name == "SkipNow"
	}
	return false
}
