package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnitFlow is the repository's flow-sensitive unit checker. The model
// packages now declare named unit types (energy.Joules/Picojoules,
// power.Watts/Milliwatts, sim.Time/Nanoseconds/Cycles/Hertz, dram.Bytes,
// soc.MHz/BytesPerSecond); the compiler already rejects additive mixing of
// two distinct named types, so what remains — and what this analyzer
// tracks — is the dimension of the plain float64/int64 values those types
// are explicitly converted into for arithmetic. A local `x :=
// float64(cfg.IdlePower)` carries the power dimension through every
// assignment, and `x + float64(etr)` (etr in joules) is flagged even when
// the two sides were defined blocks apart. Dimensions propagate through:
//
//   - assignments and short declarations (per-function CFG fixpoint, with
//     intersection at joins: a fact survives only when every path agrees);
//   - explicit conversions to plain numeric types (float64(j) keeps j's
//     dimension — the conversion changes representation, not meaning);
//   - struct fields and function results, via their declared unit types,
//     and calls whose result is a plain number, via the unit suffix of the
//     callee's name;
//   - a name-suffix heuristic (energyPJ, busPs, …) for untyped locals,
//     kept as the fallback for values no type ever touched.
//
// Multiplication and division legitimately change dimension (power*time,
// cycles/frequency) and yield an unknown dimension; conversions to a unit
// type (energy.Joules(x)) assert the result's dimension regardless of the
// operand, making them the sanctioned rescale boundary.
var UnitFlow = &Analyzer{
	Name: "unitflow",
	Doc: "flow-sensitive unit checking: propagate dimensions from the named unit types " +
		"(Joules, Watts, Time, Cycles, Bytes, …) through conversions, locals, fields and calls, " +
		"and flag +, -, comparisons and += / -= whose operands carry different dimensions",
	Run: runUnitFlow,
}

// unitDimTable maps a named type to its dimension. The table is keyed by
// type name, not import path: the dimensions are meaningful for any
// package that declares them (golden corpora declare local copies), and
// two same-named types that could meet in one expression would already be
// a compile error. Only named types with a numeric underlying type
// qualify, which keeps struct types like time.Time out. Distinct scales of
// one dimension (J vs pJ, W vs mW, Hz vs MHz) are distinct dimensions:
// the silent 1000x slip is the bug class this exists for.
var unitDimTable = map[string]string{
	"Joules":         "energy (J)",
	"Picojoules":     "energy (pJ)",
	"Watts":          "power (W)",
	"Milliwatts":     "power (mW)",
	"Time":           "time (ps)",
	"Nanoseconds":    "time (ns)",
	"Cycles":         "cycle count",
	"Hertz":          "frequency (Hz)",
	"MHz":            "frequency (MHz)",
	"Bytes":          "byte count",
	"BytesPerSecond": "bandwidth (B/s)",
}

// unitSuffixes maps a recognized identifier suffix to its dimension, in
// the vocabulary of unitDimTable so a typed operand can conflict with a
// suffix-named one.
var unitSuffixes = []struct{ suffix, dim string }{
	{"Cycles", "cycle count"},
	{"MHz", "frequency (MHz)"},
	{"PJ", "energy (pJ)"},
	{"NJ", "energy (nJ)"},
	{"MW", "power (mW)"},
	{"Ps", "time (ps)"},
	{"Ns", "time (ns)"},
}

// additiveOps are the operators where mixed dimensions are always a bug.
var additiveOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.EQL: true, token.NEQ: true,
	token.LSS: true, token.LEQ: true,
	token.GTR: true, token.GEQ: true,
}

// typeDim returns the dimension a type carries, or "".
func typeDim(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if b, ok := named.Underlying().(*types.Basic); !ok || b.Info()&types.IsNumeric == 0 {
		return ""
	}
	return unitDimTable[named.Obj().Name()]
}

// suffixDim returns the dimension a bare name's unit suffix suggests, or
// "". The suffix must start at a camelCase boundary (the byte before it is
// a lowercase letter or digit, or the name is the suffix itself), so e.g.
// "Caps" is not read as ending in "Ps".
func suffixDim(name string) string {
	for _, u := range unitSuffixes {
		rest, ok := strings.CutSuffix(name, u.suffix)
		if !ok {
			continue
		}
		if rest == "" {
			return u.dim
		}
		if last := rest[len(rest)-1]; last >= 'a' && last <= 'z' || last >= '0' && last <= '9' {
			return u.dim
		}
	}
	return ""
}

type unitflowRun struct {
	pass *Pass
}

func runUnitFlow(pass *Pass) {
	u := &unitflowRun{pass: pass}

	// Package-level initializers have no flow; check with an empty env.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				u.checkNode(factEnv{}, gd)
			}
		}
	}
	funcBodies(pass, func(decl *ast.FuncDecl) {
		u.analyzeBody(decl.Body)
	})
	// Function literals get their own graphs; captured variables enter
	// with no facts, which can only lose precision, never invent a
	// conflict.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				u.analyzeBody(lit.Body)
			}
			return true
		})
	}
}

// analyzeBody runs the dimension fixpoint over one body and checks every
// additive expression under the resulting per-block environments.
func (u *unitflowRun) analyzeBody(body *ast.BlockStmt) {
	g := buildCFG(u.pass, body)
	in := forwardFixpoint(g, u.transfer)
	for _, b := range g.blocks {
		env := in[b.index]
		if env == nil {
			env = factEnv{}
		} else {
			env = env.clone()
		}
		for _, n := range b.nodes {
			u.checkNode(env, n)
			env = u.transfer(env, n)
		}
	}
}

// transfer folds one CFG node into the dimension environment.
func (u *unitflowRun) transfer(env factEnv, n ast.Node) factEnv {
	switch n := n.(type) {
	case *ast.AssignStmt:
		switch {
		case n.Tok == token.ASSIGN || n.Tok == token.DEFINE:
			if pairs := assignTargets(n); pairs != nil {
				for _, p := range pairs {
					if v := lhsVar(u.pass, p[0]); v != nil {
						if d := u.dimOf(env, p[1]); d != "" {
							env[v] = d
						} else {
							delete(env, v)
						}
					}
				}
			} else {
				// Multi-value assignment: results carry only their
				// declared types (handled by dimOf's static case).
				for _, lhs := range n.Lhs {
					if v := lhsVar(u.pass, lhs); v != nil {
						delete(env, v)
					}
				}
			}
		case n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN:
			// Additive update keeps the dimension.
		default:
			// *=, /=, …: the dimension changes; drop the fact.
			if len(n.Lhs) == 1 {
				if v := lhsVar(u.pass, n.Lhs[0]); v != nil {
					delete(env, v)
				}
			}
		}
	case *ast.RangeStmt:
		if n.Key != nil {
			if v := lhsVar(u.pass, n.Key); v != nil {
				delete(env, v)
			}
		}
		if n.Value != nil {
			if v := lhsVar(u.pass, n.Value); v != nil {
				delete(env, v)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					v, _ := u.pass.Info.ObjectOf(name).(*types.Var)
					if v == nil {
						continue
					}
					if i < len(vs.Values) {
						if d := u.dimOf(env, vs.Values[i]); d != "" {
							env[v] = d
							continue
						}
					}
					delete(env, v)
				}
			}
		}
	}
	return env
}

// dimOf resolves the dimension of an expression under env, or "".
func (u *unitflowRun) dimOf(env factEnv, e ast.Expr) string {
	// The static type is authoritative when it is a unit type.
	if tv, ok := u.pass.Info.Types[e]; ok {
		if d := typeDim(tv.Type); d != "" {
			return d
		}
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := u.pass.Info.ObjectOf(e).(*types.Var); ok {
			if d, ok := env[v]; ok {
				return d
			}
		}
		return suffixDim(e.Name)
	case *ast.SelectorExpr:
		return suffixDim(e.Sel.Name)
	case *ast.IndexExpr:
		return u.dimOf(env, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB || e.Op == token.XOR {
			return u.dimOf(env, e.X)
		}
	case *ast.CallExpr:
		if tv, ok := u.pass.Info.Types[e.Fun]; ok && tv.IsType() {
			// Conversion. To a unit type: handled by the static case
			// above. To a plain numeric type: representation change,
			// dimension flows through.
			if len(e.Args) == 1 {
				return u.dimOf(env, e.Args[0])
			}
			return ""
		}
		// A real call with a plain result: the unit suffix of the callee
		// name (func totalPJ() float64 { … }). A conversion helper (nsFromPs)
		// is named after its input's unit, not its result's, so a name
		// containing "From" suggests no dimension.
		var name string
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if !strings.Contains(name, "From") {
			return suffixDim(name)
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB:
			dx, dy := u.dimOf(env, e.X), u.dimOf(env, e.Y)
			switch {
			case dx == "":
				return dy
			case dy == "", dx == dy:
				return dx
			}
			return "" // conflicting: reported by checkNode, result unknown
		}
		// *, /, %, shifts, bit ops: dimension changes or is meaningless.
		return ""
	}
	return ""
}

// checkNode inspects one CFG node's expressions under env, skipping func
// literal bodies (they have their own graphs) and the body of a range
// header node (its statements live in successor blocks).
func (u *unitflowRun) checkNode(env factEnv, n ast.Node) {
	root := n
	if rng, ok := n.(*ast.RangeStmt); ok {
		root = rng.X
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if additiveOps[n.Op] {
				u.checkPair(env, n.OpPos, n.Op.String(), n.X, n.Y)
			}
		case *ast.AssignStmt:
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && len(n.Lhs) == 1 && len(n.Rhs) == 1 {
				u.checkPair(env, n.TokPos, n.Tok.String(), n.Lhs[0], n.Rhs[0])
			}
		}
		return true
	})
}

func (u *unitflowRun) checkPair(env factEnv, pos token.Pos, op string, x, y ast.Expr) {
	dx, dy := u.dimOf(env, x), u.dimOf(env, y)
	if dx == "" || dy == "" || dx == dy {
		return
	}
	u.pass.Reportf(pos, "%q mixes %s (%s) with %s (%s); convert through the unit types explicitly",
		op, u.pass.ExprString(x), dx, u.pass.ExprString(y), dy)
}
