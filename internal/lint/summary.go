package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Per-function summaries, computed bottom-up over the SCC condensation of
// each package's call graph (recursive cycles iterate to a fixpoint; every
// fact only moves up a finite lattice, so it converges). A summary answers,
// for any call site, the questions the interprocedural analyzers ask:
//
//   - aliasing: may a result alias state the caller does not own — the
//     receiver, a parameter, a captured or a package-level variable? The
//     classifier reads this through callResultRoots, so allocheck can tell
//     an append into a reused buffer handed back by a helper from an append
//     into a fresh local slice.
//   - unit dimensions: the dimension of each result (so a Joules total
//     returned as a plain float64 cannot launder into Watts in the caller)
//     and of each plain-typed parameter the body constrains additively.
//   - ledger sinks: parameters that flow into an energy accumulator, so
//     energy produced in one function and deposited by a helper is visible
//     to ledgercheck's exactly-one-ledger rule.
//
// Unknown callees — the standard library, and interface dispatch that
// resolves to no module implementation — default to fresh results and
// dimensionless values, which keeps the analyzers quiet on code they cannot
// see.

// summary is the per-function fact table.
type summary struct {
	returnsShared bool // some result may alias receiver/param/global/captured state

	resultDims []string // dimension of each result ("" unknown/conflicting)
	paramDims  []string // dimension constraint of each parameter
	accParam   []bool   // parameter flows into an energy accumulator
}

func newSummary(n *funcNode) *summary {
	np := len(n.params)
	nr := 0
	if n.sig != nil {
		nr = n.sig.Results().Len()
	}
	return &summary{
		resultDims: make([]string, nr),
		paramDims:  make([]string, np),
		accParam:   make([]bool, np),
	}
}

// signature encodes the summary's facts for fixpoint convergence.
func (s *summary) signature() string {
	var sb strings.Builder
	b := func(v bool) {
		if v {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	b(s.returnsShared)
	sb.WriteByte('|')
	sb.WriteString(strings.Join(s.resultDims, ";"))
	sb.WriteByte('|')
	sb.WriteString(strings.Join(s.paramDims, ";"))
	for _, v := range s.accParam {
		b(v)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Root classification

type rootClass int

const (
	classFresh rootClass = iota // local to the function
	classGlobal
	classRecv
	classParam
	classCaptured
)

type rootRef struct {
	class rootClass
	index int // parameter index for classParam
}

// classifier resolves what state an expression of one function can reach,
// including a flow-insensitive alias pass so a local bound to shared state
// (`m := r.layoutByDisp`) classifies like the state it aliases.
type classifier struct {
	g       *callGraph
	n       *funcNode
	aliases map[*types.Var][]rootRef
}

func newClassifier(g *callGraph, n *funcNode) *classifier {
	c := &classifier{g: g, n: n, aliases: map[*types.Var][]rootRef{}}
	c.buildAliases()
	return c
}

// classifyVar places a variable relative to the function: receiver,
// parameter, package-level, captured from an enclosing function, or local.
func (c *classifier) classifyVar(v *types.Var) rootRef {
	if v == nil || v.IsField() {
		return rootRef{class: classFresh}
	}
	if c.n.recv != nil && v == c.n.recv {
		return rootRef{class: classRecv}
	}
	for i, p := range c.n.params {
		if p != nil && v == p {
			return rootRef{class: classParam, index: i}
		}
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return rootRef{class: classGlobal}
	}
	if c.n.lit != nil && (v.Pos() < c.n.lit.Pos() || v.Pos() > c.n.lit.End()) {
		return rootRef{class: classCaptured}
	}
	return rootRef{class: classFresh}
}

// sharedRootsOfVar expands a variable to the shared roots a dereference of it
// can reach: its own classification plus whatever a local may alias.
func (c *classifier) sharedRootsOfVar(v *types.Var) []rootRef {
	r := c.classifyVar(v)
	if r.class != classFresh {
		return []rootRef{r}
	}
	return c.aliases[v]
}

// isRefCarrying reports whether a value of type t can share a referent with
// another value after a plain copy: pointers, slices, maps, channels,
// interfaces, and aggregates containing any of those. Copying a scalar or a
// ref-free struct severs the connection — writes to the copy are local.
func isRefCarrying(t types.Type) bool {
	return refCarrying(t, 0)
}

func refCarrying(t types.Type, depth int) bool {
	if depth > 6 {
		return true // give up conservatively on deep nesting
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	case *types.Array:
		return refCarrying(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refCarrying(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}

// rootsOf returns the shared roots an expression can reach, or nil for
// purely local values.
//
// deref tracks Go's value semantics: it starts false and turns true the
// first time the chain passes a dereference (a selector through a pointer,
// a slice/map index, an explicit *). Without one the expression denotes the
// variable's own storage, which is only shared when the variable is
// captured (by reference) or package-level: `&cfg.Delivery` on a by-value
// Config parameter points into the local copy and yields no root. With
// deref set, the expression reaches the referent, so the root variable's
// classification (and a local's aliases) apply.
func (c *classifier) rootsOf(e ast.Expr, deref bool) []rootRef {
	info := c.g.pass.Info
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		v, ok := info.ObjectOf(e).(*types.Var)
		if !ok {
			return nil
		}
		if deref {
			return c.sharedRootsOfVar(v)
		}
		// Touching the variable itself: by-value roots are copies.
		switch r := c.classifyVar(v); r.class {
		case classCaptured, classGlobal:
			return []rootRef{r}
		}
		return nil
	case *ast.SelectorExpr:
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
				// Qualified reference pkg.Var: package-level state.
				if _, ok := info.ObjectOf(e.Sel).(*types.Var); ok {
					return []rootRef{{class: classGlobal}}
				}
				return nil
			}
		}
		d := deref
		if tv, ok := info.Types[e.X]; ok {
			if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
				d = true
			}
		}
		return c.rootsOf(e.X, d)
	case *ast.IndexExpr:
		d := deref
		if tv, ok := info.Types[e.X]; ok {
			switch tv.Type.Underlying().(type) {
			case *types.Map, *types.Slice, *types.Pointer:
				d = true
			}
		}
		return c.rootsOf(e.X, d)
	case *ast.SliceExpr:
		return c.rootsOf(e.X, true)
	case *ast.StarExpr:
		return c.rootsOf(e.X, true)
	case *ast.UnaryExpr:
		return c.rootsOf(e.X, deref)
	case *ast.TypeAssertExpr:
		return c.rootsOf(e.X, true)
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 {
				return c.rootsOf(e.Args[0], deref)
			}
			return nil
		}
		return c.callResultRoots(e)
	}
	return nil
}

// callResultRoots classifies what a call's results may alias: fresh unless
// some resolved callee declares returnsShared, in which case the receiver
// and the ref-carrying arguments contribute their roots (a by-value
// argument was copied across the call; the result cannot alias the
// caller's copy).
func (c *classifier) callResultRoots(call *ast.CallExpr) []rootRef {
	shared := false
	for _, t := range c.g.calleesOf(call) {
		if t.sum != nil && t.sum.returnsShared {
			shared = true
			break
		}
	}
	if !shared {
		return nil
	}
	info := c.g.pass.Info
	var roots []rootRef
	add := func(e ast.Expr) {
		if tv, ok := info.Types[e]; ok && !isRefCarrying(tv.Type) {
			return
		}
		roots = append(roots, c.rootsOf(e, true)...)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		add(sel.X)
	}
	for _, a := range call.Args {
		add(a)
	}
	return roots
}

// buildAliases iterates the body's bindings until the local→shared-root map
// stabilizes. Nested literal bodies are excluded: their locals belong to
// their own nodes.
func (c *classifier) buildAliases() {
	// aliasRoots evaluates what referent a bound value shares. A plain read
	// of a ref-carrying value (`s := m.lines`) yields a reference whose
	// referent survives any number of struct copies, so the leaf variable is
	// classified fully (deref=true). `&expr` instead points at the location
	// of expr: `p := &t.f` on a by-value t points into the local copy
	// (deref=false at the leaf).
	aliasRoots := func(rhs ast.Expr) []rootRef {
		if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok && u.Op == token.AND {
			return c.rootsOf(rhs, false)
		}
		return c.rootsOf(rhs, true)
	}
	bind := func(lhs ast.Expr, roots []rootRef) bool {
		v := lhsVar(c.g.pass, lhs)
		if v == nil || len(roots) == 0 {
			return false
		}
		// Only reference-carrying locals can alias shared state; copying a
		// scalar or ref-free struct severs the connection (`i := lo`,
		// `cfg := r.Cfg.Platform`).
		if !isRefCarrying(v.Type()) {
			return false
		}
		if c.classifyVar(v).class != classFresh {
			return false
		}
		changed := false
		for _, r := range roots {
			dup := false
			for _, have := range c.aliases[v] {
				if have == r {
					dup = true
					break
				}
			}
			if !dup {
				c.aliases[v] = append(c.aliases[v], r)
				changed = true
			}
		}
		return changed
	}
	for iter := 0; iter < 10; iter++ {
		changed := false
		walkOwnLevel(c.n.body, func(nd ast.Node) {
			switch nd := nd.(type) {
			case *ast.AssignStmt:
				if nd.Tok != token.ASSIGN && nd.Tok != token.DEFINE {
					return
				}
				if pairs := assignTargets(nd); pairs != nil {
					for _, p := range pairs {
						if bind(p[0], aliasRoots(p[1])) {
							changed = true
						}
					}
				} else if len(nd.Rhs) == 1 {
					roots := aliasRoots(nd.Rhs[0])
					for _, lhs := range nd.Lhs {
						if bind(lhs, roots) {
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				roots := c.rootsOf(nd.X, true)
				if nd.Key != nil && bind(nd.Key, roots) {
					changed = true
				}
				if nd.Value != nil && bind(nd.Value, roots) {
					changed = true
				}
			case *ast.ValueSpec:
				for i, name := range nd.Names {
					if i < len(nd.Values) && bind(name, aliasRoots(nd.Values[i])) {
						changed = true
					}
				}
			}
		})
		if !changed {
			break
		}
	}
}

// walkOwnLevel visits every node of the body except the interiors of nested
// function literals.
func walkOwnLevel(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(nd ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false
		}
		if nd != nil {
			visit(nd)
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Summary computation

// summarizeSCC computes the summaries of one strongly connected component.
// Single functions take one pass (their callees, being in earlier SCCs, are
// done); recursive cycles iterate until the signatures stop moving.
func summarizeSCC(g *callGraph, scc []*funcNode) {
	for _, n := range scc {
		n.sum = newSummary(n)
	}
	for iter := 0; iter < 20; iter++ {
		changed := false
		for _, n := range scc {
			old := n.sum.signature()
			n.sum = computeSummary(g, n)
			if n.sum.signature() != old {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// computeSummary derives one function's summary from its body and the
// current summaries of its callees.
func computeSummary(g *callGraph, n *funcNode) *summary {
	s := newSummary(n)
	cls := newClassifier(g, n)
	pass := g.pass
	walkOwnLevel(n.body, func(nd ast.Node) {
		ret, ok := nd.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, res := range ret.Results {
			// Only a ref-carrying result can hand the caller a handle to
			// shared state; `return r.frames` does, `return r.count` can't.
			if tv, ok := pass.Info.Types[res]; ok && !isRefCarrying(tv.Type) {
				continue
			}
			if len(cls.rootsOf(res, true)) > 0 {
				s.returnsShared = true
			}
		}
	})
	computeUnitFacts(g, n, cls, s)
	return s
}

// argsForParam returns the call arguments feeding parameter index k of the
// callee (several for a variadic tail).
func argsForParam(call *ast.CallExpr, callee *funcNode, k int) []ast.Expr {
	np := len(callee.params)
	if np == 0 {
		return nil
	}
	variadic := callee.sig != nil && callee.sig.Variadic()
	var out []ast.Expr
	for i, arg := range call.Args {
		pi := i
		if pi >= np {
			if !variadic {
				continue
			}
			pi = np - 1
		}
		if pi == k {
			out = append(out, arg)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Unit and ledger facts

// computeUnitFacts derives result/parameter dimensions and accumulator-sink
// parameters by running the unitflow dimension fixpoint over the body with
// the callee summaries already in reach (bottom-up SCC order).
func computeUnitFacts(g *callGraph, n *funcNode, cls *classifier, s *summary) {
	if n.sig == nil {
		return
	}
	u := &unitflowRun{pass: g.pass, graph: g}
	cfg := buildCFG(g.pass, n.body)
	in := forwardFixpoint(cfg, u.transfer)

	nres := n.sig.Results().Len()
	resConflict := make([]bool, nres)
	paramConflict := make([]bool, len(n.params))

	joinDim := func(dst []string, conflict []bool, i int, d string) {
		if i < 0 || i >= len(dst) || conflict[i] || d == "" {
			return
		}
		switch dst[i] {
		case "":
			dst[i] = d
		case d:
		default:
			dst[i] = ""
			conflict[i] = true
		}
	}
	paramIndexOf := func(e ast.Expr) int {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return -1
		}
		v, _ := g.pass.Info.ObjectOf(id).(*types.Var)
		if v == nil {
			return -1
		}
		if r := cls.classifyVar(v); r.class == classParam {
			// Only plain-typed parameters need inference; a declared unit
			// type is already authoritative everywhere.
			if typeDim(v.Type()) == "" {
				return r.index
			}
		}
		return -1
	}
	constrain := func(env factEnv, x, y ast.Expr) {
		if i := paramIndexOf(x); i >= 0 {
			joinDim(s.paramDims, paramConflict, i, u.dimOf(env, y))
		}
	}

	for _, b := range cfg.blocks {
		env := factEnv{}
		if in[b.index] != nil {
			env = in[b.index].clone()
		}
		for _, nd := range b.nodes {
			root := nd
			if rng, ok := nd.(*ast.RangeStmt); ok {
				root = rng.X
			}
			ast.Inspect(root, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.FuncLit:
					return false
				case *ast.BinaryExpr:
					if additiveOps[x.Op] {
						constrain(env, x.X, x.Y)
						constrain(env, x.Y, x.X)
					}
				case *ast.AssignStmt:
					if (x.Tok == token.ADD_ASSIGN || x.Tok == token.SUB_ASSIGN) && len(x.Lhs) == 1 && len(x.Rhs) == 1 {
						constrain(env, x.Rhs[0], x.Lhs[0])
						// Energy accumulated off a parameter is a ledger
						// sink for that parameter.
						if i := accParamIndex(g, cls, x.Rhs[0]); i >= 0 && isEnergyDim(u.dimOf(env, x.Lhs[0])) && x.Tok == token.ADD_ASSIGN {
							if i < len(s.accParam) {
								s.accParam[i] = true
							}
						}
					}
				case *ast.CallExpr:
					for _, callee := range g.calleesOf(x) {
						if callee.sum == nil {
							continue
						}
						for k := range callee.params {
							var pd string
							var acc bool
							if k < len(callee.sum.paramDims) {
								pd = callee.sum.paramDims[k]
							}
							if k < len(callee.sum.accParam) {
								acc = callee.sum.accParam[k]
							}
							if pd == "" && !acc {
								continue
							}
							for _, arg := range argsForParam(x, callee, k) {
								if i := paramIndexOf(arg); i >= 0 {
									joinDim(s.paramDims, paramConflict, i, pd)
									if acc && i < len(s.accParam) {
										s.accParam[i] = true
									}
								}
							}
						}
					}
				case *ast.ReturnStmt:
					if nres == 0 {
						return true
					}
					if len(x.Results) != nres {
						for i := range resConflict {
							resConflict[i] = true
							s.resultDims[i] = ""
						}
						return true
					}
					for i, res := range x.Results {
						joinDim(s.resultDims, resConflict, i, u.dimOf(env, res))
					}
				}
				return true
			})
			env = u.transfer(env, nd)
		}
	}
	// Declared unit result types are authoritative regardless of body flow.
	for i := 0; i < nres; i++ {
		if d := typeDim(n.sig.Results().At(i).Type()); d != "" {
			s.resultDims[i] = d
		}
	}
}

// accParamIndex resolves an expression to a plain parameter read (the shape
// `lhs += p`), or -1.
func accParamIndex(g *callGraph, cls *classifier, e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	v, _ := g.pass.Info.ObjectOf(id).(*types.Var)
	if v == nil {
		return -1
	}
	if r := cls.classifyVar(v); r.class == classParam {
		return r.index
	}
	return -1
}
