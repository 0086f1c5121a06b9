package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Allocheck is machlint v4's hot-path allocation analyzer. The simulator's
// per-frame loop (core.Runner.StepFrame and everything it reaches) is the
// engine's steady state: any heap allocation there repeats tens of
// thousands of times per run, churns the GC, and is exactly the regression
// the 0-allocs StepFrame test in internal/core exists to catch. The test
// catches the regression after the fact; this analyzer points at the line.
//
// Roots are declared in the source with `//lint:hotpath <reason>` on a
// function's doc comment. The analyzer walks each root's call cone over the
// v3 interprocedural call graph — static calls, method calls, resolved
// function values, interface dispatch, and contained literals — and flags
// the allocation shapes Go's escape analysis cannot keep off the heap:
//
//   - make / new calls;
//   - slice and map composite literals, and &T{...} (address-taken
//     composites escape);
//   - append whose base slice is function-local (fresh backing array per
//     call, as opposed to amortized growth of persistent scratch);
//   - capturing function literals (a closure environment per call);
//   - go statements (goroutine stack plus closure per call);
//   - string<->[]byte/[]rune conversions (they copy);
//   - arguments boxed into interface parameters (fmt being the usual way
//     this sneaks in).
//
// Proven-reusable patterns pass without annotation:
//
//   - amortized growth: an allocation inside an if guarded by a cap()/len()
//     comparison only runs until the buffer reaches its high-water mark;
//   - persistent append: append rooted at a receiver/parameter/global (or a
//     local aliasing one), the scratch-slice reuse idiom `buf = buf[:0]`;
//   - index-owned slot writes never allocate and are never flagged;
//   - cold branches: allocations inside panic arguments, panic-terminated
//     blocks, and `err != nil` guards run at most once per failure;
//   - constructor fences: the cone never enters New*/new* functions —
//     instead the call itself is reported, so a deliberate warm-up
//     allocation is sanctioned once, at the call site, with an ignore
//     directive explaining the amortization.
//
// Everything else on the cone needs either a refactor or a written
// `//lint:ignore allocheck <reason>` — which staleignore keeps honest.
var Allocheck = &Analyzer{
	Name: "allocheck",
	Doc: "flag per-frame allocation sites in the call cones of //lint:hotpath roots: " +
		"make/new, escaping composites and closures, fresh-local append, string conversions, " +
		"interface boxing; amortized growth, persistent scratch, and cold branches are sanctioned",
	Run: runAllocheck,
}

func runAllocheck(pass *Pass) {
	g := pass.graph
	if g == nil || pass.mod == nil {
		return
	}
	hot := pass.mod.hotpathCone(pass)
	for _, n := range g.nodes {
		if hot[n] {
			checkHotNode(pass, g, n)
		}
	}
}

// hotpathCone resolves every //lint:hotpath directive of the run to its
// function declaration and returns the set of nodes reachable from those
// roots without entering a constructor fence. The cone is module-wide and
// computed once; each package's pass then reports only its own nodes.
func (m *moduleIndex) hotpathCone(pass *Pass) map[*funcNode]bool {
	if m.hotDone {
		return m.hot
	}
	m.hotDone = true
	var roots []*funcNode
	for _, dir := range pass.directives {
		if !dir.hotpath {
			continue
		}
		if n := m.funcAt(dir.pos); n != nil {
			dir.used = true
			roots = append(roots, n)
		}
	}
	m.hot = map[*funcNode]bool{}
	var walk func(n *funcNode)
	walk = func(n *funcNode) {
		if n == nil || m.hot[n] || isAllocConstructor(n) {
			return
		}
		m.hot[n] = true
		for _, o := range n.out {
			walk(o)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return m.hot
}

// funcAt resolves a directive position to the function declaration it
// annotates: the directive line lies inside the declaration's doc comment
// or immediately above the declaration.
func (m *moduleIndex) funcAt(pos token.Position) *funcNode {
	for _, g := range m.graphs {
		fset := g.pass.Fset
		for _, f := range g.pass.Files {
			if fset.Position(f.Pos()).Filename != pos.Filename {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				attached := pos.Line == fset.Position(fd.Pos()).Line-1
				if fd.Doc != nil {
					start := fset.Position(fd.Doc.Pos()).Line
					end := fset.Position(fd.Doc.End()).Line
					if pos.Line >= start && pos.Line <= end {
						attached = true
					}
				}
				if !attached {
					continue
				}
				if obj, _ := g.pass.Info.Defs[fd.Name].(*types.Func); obj != nil {
					return m.byFunc[obj]
				}
			}
		}
	}
	return nil
}

// isAllocConstructor fences the cone at deliberate initializers: a declared
// function named New*/new* that returns a named struct (or pointer to one).
// Calls to such functions from hot code are reported at the call site
// instead, so warm-up allocations get exactly one sanction point.
func isAllocConstructor(n *funcNode) bool {
	if n.fn == nil || n.sig == nil {
		return false
	}
	name := n.fn.Name()
	if !strings.HasPrefix(name, "New") && !strings.HasPrefix(name, "new") {
		return false
	}
	res := n.sig.Results()
	for i := 0; i < res.Len(); i++ {
		t := res.At(i).Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct {
				return true
			}
		}
	}
	return false
}

// allocCtx carries the sanction state of the statement being visited.
type allocCtx struct {
	// cold: the code runs at most once per failure (panic arguments,
	// panic-terminated blocks, err != nil guards), not once per frame.
	cold bool
	// capGuarded: inside an if whose condition compares cap() or len() —
	// the amortized-growth idiom; the allocation stops once the buffer
	// reaches its high-water mark.
	capGuarded bool
}

// allocWalker checks one hot function body.
type allocWalker struct {
	pass *Pass
	g    *callGraph
	n    *funcNode
	cls  *classifier
}

func checkHotNode(pass *Pass, g *callGraph, n *funcNode) {
	w := &allocWalker{pass: pass, g: g, n: n, cls: newClassifier(g, n)}
	w.stmts(n.body.List, allocCtx{})
}

func (w *allocWalker) stmts(list []ast.Stmt, ctx allocCtx) {
	for _, s := range list {
		w.stmt(s, ctx)
	}
}

func (w *allocWalker) stmt(s ast.Stmt, ctx allocCtx) {
	switch s := s.(type) {
	case nil:
	case *ast.IfStmt:
		w.stmt(s.Init, ctx)
		w.expr(s.Cond, ctx)
		bodyCtx := ctx
		if condComparesCap(s.Cond) {
			bodyCtx.capGuarded = true
		}
		if w.condIsErrGuard(s.Cond) || blockPanics(s.Body) {
			bodyCtx.cold = true
		}
		w.stmts(s.Body.List, bodyCtx)
		w.stmt(s.Else, ctx)
	case *ast.BlockStmt:
		w.stmts(s.List, ctx)
	case *ast.ForStmt:
		w.stmt(s.Init, ctx)
		w.expr(s.Cond, ctx)
		w.stmt(s.Post, ctx)
		w.stmts(s.Body.List, ctx)
	case *ast.RangeStmt:
		w.expr(s.X, ctx)
		w.stmts(s.Body.List, ctx)
	case *ast.SwitchStmt:
		w.stmt(s.Init, ctx)
		w.expr(s.Tag, ctx)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseCtx := ctx
			if clausePanics(cc) {
				caseCtx.cold = true
			}
			for _, e := range cc.List {
				w.expr(e, ctx)
			}
			w.stmts(cc.Body, caseCtx)
		}
	case *ast.TypeSwitchStmt:
		w.stmt(s.Init, ctx)
		w.stmt(s.Assign, ctx)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			caseCtx := ctx
			if clausePanics(cc) {
				caseCtx.cold = true
			}
			w.stmts(cc.Body, caseCtx)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.stmt(cc.Comm, ctx)
			w.stmts(cc.Body, ctx)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, ctx)
	case *ast.GoStmt:
		if !ctx.cold {
			w.pass.Reportf(s.Pos(), "go statement on the hot path launches a goroutine (stack + closure) every frame; use a persistent worker pool or keep this off the per-frame cone")
		}
		// The spawned callee still gets its body checked as its own cone
		// node; only report the literal's closure once, via the go itself.
		w.callArgsOnly(s.Call, ctx)
	case *ast.DeferStmt:
		w.expr(s.Call, ctx)
	case *ast.ExprStmt:
		w.expr(s.X, ctx)
	case *ast.SendStmt:
		w.expr(s.Chan, ctx)
		w.expr(s.Value, ctx)
	case *ast.IncDecStmt:
		w.expr(s.X, ctx)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e, ctx)
		}
		for _, e := range s.Lhs {
			w.expr(e, ctx)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e, ctx)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, ctx)
					}
				}
			}
		}
	}
}

func (w *allocWalker) expr(e ast.Expr, ctx allocCtx) {
	switch e := e.(type) {
	case nil:
	case *ast.ParenExpr:
		w.expr(e.X, ctx)
	case *ast.CallExpr:
		w.call(e, ctx)
	case *ast.FuncLit:
		// The literal's body is its own cone node; here only the closure
		// value itself is at issue. A literal that captures nothing
		// compiles to a static function value and costs no allocation.
		if !ctx.cold && w.litCaptures(e) {
			w.pass.Reportf(e.Pos(), "capturing function literal on the hot path allocates a closure every call; build it once in the constructor and reuse it, or make the state explicit parameters")
		}
	case *ast.CompositeLit:
		if !ctx.cold {
			if tv, ok := w.pass.Info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					w.pass.Reportf(e.Pos(), "slice literal on the hot path allocates a backing array every call; hoist it to a package-level var or a reused field")
				case *types.Map:
					w.pass.Reportf(e.Pos(), "map literal on the hot path allocates every call; hoist it and reuse it (clear with a range-delete loop)")
				}
			}
		}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value, ctx)
				continue
			}
			w.expr(el, ctx)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND && !ctx.cold && !ctx.capGuarded {
			if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
				w.pass.Reportf(e.Pos(), "address-taken composite literal escapes to the heap on the hot path; reuse an object from a pool or a reset-in-place field")
			}
		}
		w.expr(e.X, ctx)
	case *ast.BinaryExpr:
		w.expr(e.X, ctx)
		w.expr(e.Y, ctx)
	case *ast.StarExpr:
		w.expr(e.X, ctx)
	case *ast.SelectorExpr:
		w.expr(e.X, ctx)
	case *ast.IndexExpr:
		w.expr(e.X, ctx)
		w.expr(e.Index, ctx)
	case *ast.SliceExpr:
		w.expr(e.X, ctx)
		w.expr(e.Low, ctx)
		w.expr(e.High, ctx)
		w.expr(e.Max, ctx)
	case *ast.TypeAssertExpr:
		w.expr(e.X, ctx)
	case *ast.KeyValueExpr:
		w.expr(e.Value, ctx)
	}
}

// call handles one call expression: builtins, conversions, boxing, and
// constructor-fence reporting, then descends into the arguments.
func (w *allocWalker) call(call *ast.CallExpr, ctx allocCtx) {
	info := w.pass.Info

	// Conversion: string<->[]byte/[]rune copies, everything else is free.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if !ctx.cold && !ctx.capGuarded && len(call.Args) == 1 && isCopyingConversion(info, call) {
			w.pass.Reportf(call.Pos(), "%s conversion on the hot path copies its operand every call; keep one representation or reuse a scratch buffer", w.pass.ExprString(call.Fun))
		}
		w.callArgsOnly(call, ctx)
		return
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				if !ctx.cold && !ctx.capGuarded {
					w.pass.Reportf(call.Pos(), "make on the hot path allocates every call; preallocate in the constructor or guard the growth with a cap()/len() check")
				}
			case "new":
				if !ctx.cold && !ctx.capGuarded {
					w.pass.Reportf(call.Pos(), "new on the hot path allocates every call; reuse an object from a pool or a reset-in-place field")
				}
			case "append":
				if !ctx.cold && !ctx.capGuarded && len(call.Args) > 0 {
					if len(w.cls.rootsOf(call.Args[0], false, true)) == 0 {
						w.pass.Reportf(call.Pos(), "append to a function-local slice on the hot path allocates a fresh backing array; root the buffer in a reused field and append to buf[:0]")
					}
				}
			case "panic":
				ctx.cold = true
			}
			w.callArgsOnly(call, ctx)
			return
		}
	}

	// Constructor fence: a hot call to New*/new* is the sanction point for
	// deliberate warm-up allocations.
	if !ctx.cold && !ctx.capGuarded {
		for _, callee := range w.g.calleesOf(call) {
			if isAllocConstructor(callee) {
				w.pass.Reportf(call.Pos(), "call to constructor %s on the hot path allocates every call; hoist it, pool the result, or justify the warm-up with an ignore directive", callee.name)
				break
			}
		}
	}

	w.checkBoxing(call, ctx)
	w.expr(call.Fun, ctx)
	w.callArgsOnly(call, ctx)
}

// callArgsOnly descends into a call's arguments without reprocessing the
// callee expression.
func (w *allocWalker) callArgsOnly(call *ast.CallExpr, ctx allocCtx) {
	for _, a := range call.Args {
		w.expr(a, ctx)
	}
}

// checkBoxing flags arguments whose static type is a concrete non-pointer
// value passed into an interface parameter — the allocation fmt smuggles
// onto hot paths.
func (w *allocWalker) checkBoxing(call *ast.CallExpr, ctx allocCtx) {
	if ctx.cold {
		return
	}
	tv, ok := w.pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 || call.Ellipsis.IsValid() {
				return // f(xs...) forwards the slice, no boxing
			}
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				return
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			return
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := w.pass.Info.Types[arg]
		if !ok || at.IsNil() {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature, *types.Chan, *types.Map:
			continue // already a reference; assigning to an interface copies a word
		}
		w.pass.Reportf(arg.Pos(), "argument %s boxes a %s into an interface parameter on the hot path, allocating every call; keep hot-path signatures concrete (fmt is the usual culprit)",
			w.pass.ExprString(arg), at.Type.String())
	}
}

// litCaptures reports whether a function literal references any variable
// declared outside itself (excluding package-level state, which lives in a
// static closure).
func (w *allocWalker) litCaptures(lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := w.pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
		}
		return true
	})
	return captures
}

// condComparesCap detects the amortized-growth guard: a comparison with a
// cap() or len() call on either side.
func condComparesCap(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(nd ast.Node) bool {
		be, ok := nd.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch be.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
		default:
			return true
		}
		for _, side := range []ast.Expr{be.X, be.Y} {
			call, ok := ast.Unparen(side).(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") {
				found = true
			}
		}
		return true
	})
	return found
}

// condIsErrGuard matches `err != nil` (and `x == nil` alternatives) where
// the operand's type is error.
func (w *allocWalker) condIsErrGuard(cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return false
	}
	for _, pair := range [][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		if tv, ok := w.pass.Info.Types[pair[1]]; !ok || !tv.IsNil() {
			continue
		}
		if tv, ok := w.pass.Info.Types[pair[0]]; ok {
			if named, ok := tv.Type.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}

// blockPanics reports whether a block's statement list ends in a call to
// panic — the cold shape `if bad { panic(...) }`.
func blockPanics(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func clausePanics(cc *ast.CaseClause) bool {
	if len(cc.Body) == 0 {
		return false
	}
	es, ok := cc.Body[len(cc.Body)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// isCopyingConversion reports a conversion that copies its operand:
// string([]byte), string([]rune), []byte(string), []rune(string).
func isCopyingConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	if !ok {
		return false
	}
	at, ok := info.Types[call.Args[0]]
	if !ok {
		return false
	}
	dst, src := tv.Type.Underlying(), at.Type.Underlying()
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteRuneSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteRuneSlice(src)) || (isByteRuneSlice(dst) && isStr(src))
}
