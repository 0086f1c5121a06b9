package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism enforces the DESIGN.md replay guarantee inside the simulation
// packages: the same seeded workload must produce bit-identical results on
// every run. Three classes of violation are flagged:
//
//   - time.Now — wall-clock time leaking into simulated time or seeds;
//   - the global math/rand source (rand.Intn, rand.Float64, rand.Seed, …) —
//     only explicitly seeded rand.New(rand.NewSource(seed)) generators are
//     reproducible and replayable;
//   - range over a map whose body appends to a slice, prints, writes to a
//     buffer, or sends on a channel — Go randomizes map iteration order, so
//     any ordered output built inside such a loop differs between runs.
//
// Shared-state writes from concurrent goroutines are not a static rule:
// `go test -race` over the parallel-equals-sequential tests is the
// repository's concurrency check.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, the global math/rand source and order-dependent " +
		"map iteration in the simulation packages (internal/sim, core, video, mach, delivery, experiments, par, fleet)",
	Run: runDeterminism,
}

// determinismScope lists the import-path subtrees whose replay the checks
// protect. Code outside (cmd/, examples/, the I/O layers) may use the wall
// clock freely, e.g. to time report generation.
var determinismScope = []string{
	"mach/internal/sim",
	"mach/internal/core",
	"mach/internal/video",
	"mach/internal/mach",
	"mach/internal/delivery",
	"mach/internal/experiments",
	"mach/internal/par",
	"mach/internal/fleet",
}

func inScope(path string, scope []string) bool {
	for _, s := range scope {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

// globalRandAllowed lists the math/rand package-level functions that do not
// touch the process-global source.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

func runDeterminism(pass *Pass) {
	if !inScope(pass.Path, determinismScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondeterministicCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
}

// calleeFunc resolves a call expression to the package-level function or
// method it invokes, or nil for builtins, conversions and function values.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func checkNondeterministicCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Methods (e.g. (*rand.Rand).Intn on a seeded generator) are fine;
	// only package-level functions reach the global state below.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now leaks wall-clock time into the simulation; derive times from sim.Time and seeds from config")
		}
	case "math/rand", "math/rand/v2":
		if !globalRandAllowed[fn.Name()] {
			pass.Reportf(call.Pos(), "rand.%s uses the process-global random source; use a seeded rand.New(rand.NewSource(seed)) so runs replay identically", fn.Name())
		}
	}
}

// checkMapRange flags range-over-map loops whose bodies have order-sensitive
// effects. Order-insensitive uses (counting, summing integers, building
// another map, deleting) pass untouched.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sink = "sends on a channel"
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				if obj, ok := pass.Info.Uses[fun].(*types.Builtin); ok && obj.Name() == "append" {
					sink = "appends to a slice"
				}
			case *ast.SelectorExpr:
				if fn := calleeFunc(pass, n); fn != nil && fn.Pkg() != nil {
					if fn.Pkg().Path() == "fmt" && strings.Contains(fn.Name(), "rint") {
						sink = "formats output"
					}
					if isWriterMethod(fn) {
						sink = "writes to a buffer"
					}
				}
			}
		}
		return true
	})
	if sink != "" {
		pass.Reportf(rng.Pos(), "map iteration order is randomized but this loop %s; iterate over sorted keys instead", sink)
	}
}

// isWriterMethod reports whether fn is a Write* method on the standard
// output-accumulating types.
func isWriterMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !strings.HasPrefix(fn.Name(), "Write") {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer", "bufio.Writer":
		return true
	}
	return false
}
