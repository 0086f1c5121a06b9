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
//   - unit dimensions: the dimension of each result (so a Joules total
//     returned as a plain float64 cannot launder into Watts in the caller)
//     and of each plain-typed parameter the body constrains additively.
//   - ledger sinks: parameters that flow into an energy accumulator, so
//     energy produced in one function and deposited by a helper is visible
//     to ledgercheck's exactly-one-ledger rule.
//
// Unknown callees — the standard library, and interface dispatch that
// resolves to no module implementation — default to dimensionless values,
// which keeps the analyzers quiet on code they cannot see.

// summary is the per-function fact table.
type summary struct {
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
	sb.WriteString(strings.Join(s.resultDims, ";"))
	sb.WriteByte('|')
	sb.WriteString(strings.Join(s.paramDims, ";"))
	for _, v := range s.accParam {
		if v {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// paramIndex resolves an expression to a plain read of one of n's
// parameters and returns its index, or -1.
func paramIndex(g *callGraph, n *funcNode, e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	v, _ := g.pass.Info.ObjectOf(id).(*types.Var)
	if v == nil {
		return -1
	}
	for i, p := range n.params {
		if p != nil && v == p {
			return i
		}
	}
	return -1
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
	computeUnitFacts(g, n, s)
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
func computeUnitFacts(g *callGraph, n *funcNode, s *summary) {
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
	// Only plain-typed parameters need inference; a declared unit type is
	// already authoritative everywhere.
	paramIndexOf := func(e ast.Expr) int {
		if i := paramIndex(g, n, e); i >= 0 && typeDim(n.params[i].Type()) == "" {
			return i
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
						if i := paramIndex(g, n, x.Rhs[0]); i >= 0 && isEnergyDim(u.dimOf(env, x.Lhs[0])) && x.Tok == token.ADD_ASSIGN {
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
