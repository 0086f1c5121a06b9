package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Package-level call graph over one package, the substrate for the
// interprocedural analyses (summary.go, statecheck, puritycheck, and the
// call-boundary cases of unitflow and ledgercheck). Per DESIGN.md
// "machlint v3", resolution covers four callee shapes:
//
//   - static calls of package-level functions, in this package or any other
//     module package (the module index maps *types.Func to its node);
//   - method calls on concrete receivers, via go/types method resolution;
//   - interface dispatch, resolved to every named type declared anywhere in
//     the module that implements the interface (a call edge per
//     implementation; effects meet conservatively at the call);
//   - function values, tracked flow-sensitively through the existing
//     dataflow facts (forwardFixpoint with a func-identity fact), with a
//     flow-insensitive once-bound fallback so a closure captured from the
//     enclosing function (`hashOne := func(...){...}` called inside a
//     worker literal) still resolves.
//
// Function literals are first-class nodes. A literal also gets a lexical
// containment edge from its enclosing function: even when a literal is only
// passed away (par.Pool.ForShards, sort.Search), its body still runs on
// behalf of the caller, so reachability and effect summaries must see it.

// funcNode is one analyzable function: a declared function/method or a
// function literal.
type funcNode struct {
	fn     *types.Func  // nil for literals
	lit    *ast.FuncLit // nil for declarations
	name   string       // diagnostic name
	body   *ast.BlockStmt
	sig    *types.Signature
	recv   *types.Var   // receiver object, nil if none
	params []*types.Var // declared parameters in order (nil entries for _ / unnamed)

	pass      *Pass     // engine pass of the owning package
	enclosing *funcNode // lexical parent, for literals

	out []*funcNode // resolved callees + contained literals (deduplicated)
	sum *summary    // computed by summarize (summary.go)
}

func (n *funcNode) String() string { return n.name }

// callGraph is the per-package graph plus the call-site resolution table.
type callGraph struct {
	pass     *Pass
	nodes    []*funcNode
	byFunc   map[*types.Func]*funcNode
	byLit    map[*ast.FuncLit]*funcNode
	callees  map[*ast.CallExpr][]*funcNode
	bindOnce map[*types.Var]*funcNode // func-typed vars with exactly one binding
	sccs     [][]*funcNode            // callee-first (bottom-up) order
}

// moduleIndex is the cross-package view RunAnalyzers builds once per run:
// every function node in the module, every named type (for interface
// dispatch), and the per-package graphs. Packages arrive in dependency
// order from LoadModule, so by the time a package is summarized its static
// callees in other packages already are; the one forward reference —
// interface dispatch into a package that imports this one — falls back to
// the unknown-callee default (assumed effect-free), which is the same
// optimistic default used for stdlib calls.
type moduleIndex struct {
	byFunc map[*types.Func]*funcNode
	graphs map[string]*callGraph
	named  []*types.Named

	// hot is the allocheck cone: every node reachable from a
	// //lint:hotpath root without entering a constructor fence. Computed
	// once per run, on the first allocheck pass (hotDone guards it).
	hot     map[*funcNode]bool
	hotDone bool
}

// enginePass builds a Pass usable by the engine itself (CFGs, type info);
// its reporter discards, because the engine never diagnoses directly.
func enginePass(fset *token.FileSet, pkg *Package) *Pass {
	return &Pass{
		Fset:   fset,
		Path:   pkg.Path,
		Files:  pkg.Files,
		Pkg:    pkg.Types,
		Info:   pkg.Info,
		check:  "engine",
		report: func(Diagnostic) {},
	}
}

// buildModuleIndex constructs graphs and summaries for every package, in
// the (already topological) order given.
func buildModuleIndex(fset *token.FileSet, pkgs []*Package) *moduleIndex {
	mod := &moduleIndex{
		byFunc: map[*types.Func]*funcNode{},
		graphs: map[string]*callGraph{},
	}
	// Phase 1: register every named type and declared function first, so
	// interface dispatch and cross-package static calls resolve regardless
	// of package order.
	graphs := make([]*callGraph, 0, len(pkgs))
	for _, pkg := range pkgs {
		g := newCallGraph(enginePass(fset, pkg))
		graphs = append(graphs, g)
		mod.graphs[pkg.Path] = g
		for fn, n := range g.byFunc {
			mod.byFunc[fn] = n
		}
		scope := pkg.Types.Scope()
		for _, nm := range scope.Names() {
			if tn, ok := scope.Lookup(nm).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					mod.named = append(mod.named, named)
				}
			}
		}
	}
	// Phase 2: resolve call sites and compute SCC summaries bottom-up.
	for _, g := range graphs {
		g.resolve(mod)
		g.condense()
	}
	for _, g := range graphs {
		for _, scc := range g.sccs {
			summarizeSCC(g, mod, scc)
		}
	}
	return mod
}

// newCallGraph collects the nodes of one package: every declared function
// with a body, and every function literal nested anywhere inside one.
func newCallGraph(pass *Pass) *callGraph {
	g := &callGraph{
		pass:     pass,
		byFunc:   map[*types.Func]*funcNode{},
		byLit:    map[*ast.FuncLit]*funcNode{},
		callees:  map[*ast.CallExpr][]*funcNode{},
		bindOnce: map[*types.Var]*funcNode{},
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := &funcNode{
				fn:   obj,
				name: funcDisplayName(obj),
				body: fd.Body,
				sig:  obj.Type().(*types.Signature),
				pass: pass,
			}
			n.recv, n.params = declObjects(pass, fd.Recv, fd.Type)
			g.nodes = append(g.nodes, n)
			g.byFunc[obj] = n
			g.collectLits(n, fd.Body)
		}
	}
	g.collectOnceBindings()
	return g
}

// collectLits registers every function literal nested in body (but not
// inside a deeper literal — those recurse) under enclosing, and adds the
// lexical containment edge.
func (g *callGraph) collectLits(enclosing *funcNode, body *ast.BlockStmt) {
	ast.Inspect(body, func(nd ast.Node) bool {
		lit, ok := nd.(*ast.FuncLit)
		if !ok {
			return true
		}
		pos := g.pass.Fset.Position(lit.Pos())
		n := &funcNode{
			lit:       lit,
			name:      fmt.Sprintf("func literal at %s:%d", pos.Filename, pos.Line),
			body:      lit.Body,
			pass:      g.pass,
			enclosing: enclosing,
		}
		if tv, ok := g.pass.Info.Types[lit]; ok {
			n.sig, _ = tv.Type.(*types.Signature)
		}
		_, n.params = declObjects(g.pass, nil, lit.Type)
		g.nodes = append(g.nodes, n)
		g.byLit[lit] = n
		g.addEdge(enclosing, n)
		g.collectLits(n, lit.Body)
		return false // inner literals were just visited by the recursion
	})
}

// declObjects resolves the receiver and parameter objects of a declaration.
// Unnamed and blank parameters keep their index with a nil entry, so call
// arguments align positionally.
func declObjects(pass *Pass, recv *ast.FieldList, ft *ast.FuncType) (rv *types.Var, params []*types.Var) {
	if recv != nil && len(recv.List) == 1 && len(recv.List[0].Names) == 1 {
		rv, _ = pass.Info.Defs[recv.List[0].Names[0]].(*types.Var)
	}
	if ft.Params != nil {
		for _, f := range ft.Params.List {
			if len(f.Names) == 0 {
				params = append(params, nil)
				continue
			}
			for _, nm := range f.Names {
				v, _ := pass.Info.Defs[nm].(*types.Var)
				params = append(params, v)
			}
		}
	}
	return rv, params
}

func funcDisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			if named, ok := p.Elem().(*types.Named); ok {
				return "(*" + named.Obj().Name() + ")." + fn.Name()
			}
		}
		if named, ok := t.(*types.Named); ok {
			return "(" + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Name()
}

func (g *callGraph) addEdge(from, to *funcNode) {
	for _, o := range from.out {
		if o == to {
			return
		}
	}
	from.out = append(from.out, to)
}

// collectOnceBindings finds func-typed variables with exactly one binding
// in the whole package whose right-hand side resolves to a module function
// or literal. They are the fallback for func values captured across
// literal boundaries, where the per-body dataflow facts cannot reach.
func (g *callGraph) collectOnceBindings() {
	writes := map[*types.Var]int{}
	target := map[*types.Var]*funcNode{}
	bind := func(lhs, rhs ast.Expr) {
		v := lhsVar(g.pass, lhs)
		if v == nil {
			return
		}
		if _, ok := v.Type().Underlying().(*types.Signature); !ok {
			return
		}
		writes[v]++
		if rhs != nil {
			if t := g.staticFuncValue(rhs); t != nil {
				target[v] = t
			}
		}
	}
	for _, f := range g.pass.Files {
		ast.Inspect(f, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.AssignStmt:
				if pairs := assignTargets(nd); pairs != nil {
					for _, p := range pairs {
						bind(p[0], p[1])
					}
				} else {
					for _, lhs := range nd.Lhs {
						bind(lhs, nil)
					}
				}
			case *ast.ValueSpec:
				for i, name := range nd.Names {
					if i < len(nd.Values) {
						bind(name, nd.Values[i])
					} else {
						bind(name, nil)
					}
				}
			}
			return true
		})
	}
	for v, n := range writes {
		if n == 1 && target[v] != nil {
			g.bindOnce[v] = target[v]
		}
	}
}

// staticFuncValue resolves an expression to a module function node without
// dataflow: a literal, a package-level function reference, or a method
// value. Returns nil when the value is not statically known.
func (g *callGraph) staticFuncValue(e ast.Expr) *funcNode {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.byLit[e]
	case *ast.Ident:
		if fn, ok := g.pass.Info.Uses[e].(*types.Func); ok {
			return g.byFunc[fn]
		}
	case *ast.SelectorExpr:
		if fn, ok := g.pass.Info.Uses[e.Sel].(*types.Func); ok {
			return g.byFunc[fn]
		}
	}
	return nil
}

// funcFactKey gives every module function node a stable dataflow fact.
func (g *callGraph) funcFactKey(n *funcNode) string {
	if n.lit != nil {
		return fmt.Sprintf("lit:%d", n.lit.Pos())
	}
	return "fn:" + n.fn.FullName()
}

// resolve walks every node's body, propagating func-value facts through the
// CFG fixpoint and recording the resolved callees of every call expression.
func (g *callGraph) resolve(mod *moduleIndex) {
	factTargets := map[string]*funcNode{}
	for _, n := range g.nodes {
		factTargets[g.funcFactKey(n)] = n
	}
	for _, n := range g.nodes {
		g.resolveNode(mod, n, factTargets)
	}
}

func (g *callGraph) resolveNode(mod *moduleIndex, n *funcNode, factTargets map[string]*funcNode) {
	cfg := buildCFG(g.pass, n.body)
	valueOf := func(env factEnv, e ast.Expr) *funcNode {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := g.pass.Info.Uses[e].(*types.Var); ok {
				if k, ok := env[v]; ok {
					return factTargets[k]
				}
				return g.bindOnce[v]
			}
		}
		if t := g.staticFuncValue(e); t != nil {
			return t
		}
		return nil
	}
	transfer := func(env factEnv, nd ast.Node) factEnv {
		a, ok := nd.(*ast.AssignStmt)
		if !ok || (a.Tok != token.ASSIGN && a.Tok != token.DEFINE) {
			return env
		}
		pairs := assignTargets(a)
		if pairs == nil {
			for _, lhs := range a.Lhs {
				if v := lhsVar(g.pass, lhs); v != nil {
					delete(env, v)
				}
			}
			return env
		}
		for _, p := range pairs {
			v := lhsVar(g.pass, p[0])
			if v == nil {
				continue
			}
			if t := valueOf(env, p[1]); t != nil {
				env[v] = g.funcFactKey(t)
			} else {
				delete(env, v)
			}
		}
		return env
	}
	in := forwardFixpoint(cfg, transfer)
	for _, b := range cfg.blocks {
		env := factEnv{}
		if in[b.index] != nil {
			env = in[b.index].clone()
		}
		for _, nd := range b.nodes {
			g.resolveCallsIn(mod, n, env, nd)
			env = transfer(env, nd)
		}
	}
}

// resolveCallsIn records the callees of every call in one CFG node, without
// descending into nested literals (they resolve on their own nodes) or a
// range header's body (it lives in other blocks).
func (g *callGraph) resolveCallsIn(mod *moduleIndex, n *funcNode, env factEnv, nd ast.Node) {
	root := nd
	if rng, ok := nd.(*ast.RangeStmt); ok {
		root = rng.X
	}
	ast.Inspect(root, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if targets := g.resolveCall(mod, env, call); len(targets) > 0 {
			g.callees[call] = targets
			for _, t := range targets {
				g.addEdge(n, t)
			}
		}
		return true
	})
}

// dispatchFanLimit caps how many implementations one interface call may
// resolve to before the engine treats the dispatch as unknown: past that
// point the meet over implementations carries no usable precision anyway.
const dispatchFanLimit = 8

// resolveCall returns the module function nodes a call may invoke.
func (g *callGraph) resolveCall(mod *moduleIndex, env factEnv, call *ast.CallExpr) []*funcNode {
	if tv, ok := g.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		if t := g.byLit[fun]; t != nil {
			return []*funcNode{t}
		}
	case *ast.Ident:
		switch obj := g.pass.Info.Uses[fun].(type) {
		case *types.Func:
			if t := mod.byFunc[obj]; t != nil {
				return []*funcNode{t}
			}
		case *types.Var:
			if k, ok := env[obj]; ok {
				if t := g.mustFact(k); t != nil {
					return []*funcNode{t}
				}
			}
			if t := g.bindOnce[obj]; t != nil {
				return []*funcNode{t}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := g.pass.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recvT := sel.Recv()
			if iface, ok := recvT.Underlying().(*types.Interface); ok {
				return mod.implementors(iface, fun.Sel.Name)
			}
		}
		if fn, ok := g.pass.Info.Uses[fun.Sel].(*types.Func); ok {
			if t := mod.byFunc[fn]; t != nil {
				return []*funcNode{t}
			}
		}
	}
	return nil
}

func (g *callGraph) mustFact(key string) *funcNode {
	for _, n := range g.nodes {
		if g.funcFactKey(n) == key {
			return n
		}
	}
	return nil
}

// implementors resolves one interface method to the matching method of
// every named module type implementing the interface.
func (m *moduleIndex) implementors(iface *types.Interface, method string) []*funcNode {
	if iface.NumMethods() == 0 {
		return nil
	}
	var out []*funcNode
	for _, named := range m.named {
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, named.Obj().Pkg(), method)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if t := m.byFunc[fn]; t != nil {
			out = append(out, t)
			if len(out) > dispatchFanLimit {
				return nil
			}
		}
	}
	return out
}

// calleesOf returns the resolved module targets of a call, or nil.
func (g *callGraph) calleesOf(call *ast.CallExpr) []*funcNode { return g.callees[call] }

// nodeOf returns the graph node for a declared function or method.
func (g *callGraph) nodeOf(fn *types.Func) *funcNode { return g.byFunc[fn] }

// reachableFrom returns every node reachable from the roots along call and
// containment edges, roots included.
func (g *callGraph) reachableFrom(roots ...*funcNode) map[*funcNode]bool {
	seen := map[*funcNode]bool{}
	var walk func(n *funcNode)
	walk = func(n *funcNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, o := range n.out {
			walk(o)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return seen
}

// condense runs Tarjan's algorithm over the package nodes. SCCs come out
// callee-first, which is exactly the bottom-up order summary computation
// needs; recursion lands whole cycles in one SCC that summarize by fixpoint.
func (g *callGraph) condense() {
	index := map[*funcNode]int{}
	low := map[*funcNode]int{}
	onStack := map[*funcNode]bool{}
	var stack []*funcNode
	next := 0
	var sccs [][]*funcNode

	var strong func(n *funcNode)
	strong = func(n *funcNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, o := range n.out {
			if o.pass != g.pass {
				continue // cross-package edges terminate in finished SCCs
			}
			if _, seen := index[o]; !seen {
				strong(o)
				if low[o] < low[n] {
					low[n] = low[o]
				}
			} else if onStack[o] && index[o] < low[n] {
				low[n] = index[o]
			}
		}
		if low[n] == index[n] {
			var scc []*funcNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range g.nodes {
		if _, seen := index[n]; !seen {
			strong(n)
		}
	}
	g.sccs = sccs
}
