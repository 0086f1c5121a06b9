package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildTestIndex type-checks one source string as a standalone package and
// builds the module index over it, exactly as RunAnalyzers does.
func buildTestIndex(t *testing.T, src, path string) (*Package, *moduleIndex) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckFile(fset, f, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	return pkg, buildModuleIndex(fset, []*Package{pkg})
}

// declaredNode finds the unique declared function or method whose name
// contains frag.
func declaredNode(t *testing.T, g *callGraph, frag string) *funcNode {
	t.Helper()
	var found *funcNode
	for _, n := range g.nodes {
		if n.fn != nil && strings.Contains(n.name, frag) {
			if found != nil {
				t.Fatalf("ambiguous node fragment %q (%s, %s)", frag, found.name, n.name)
			}
			found = n
		}
	}
	if found == nil {
		t.Fatalf("no declared node matching %q", frag)
	}
	return found
}

// calls reports whether the graph has an edge from one node to another.
func calls(from, to *funcNode) bool {
	for _, o := range from.out {
		if o == to {
			return true
		}
	}
	return false
}

func TestCallGraphMethodValue(t *testing.T) {
	src := `package p

type T struct{ n int }

func (t *T) bump() { t.n++ }

func run(t *T) {
	f := t.bump
	f()
}
`
	pkg, mod := buildTestIndex(t, src, "example.com/p")
	g := mod.graphs[pkg.Path]
	run := declaredNode(t, g, "run")
	bump := declaredNode(t, g, "bump")
	if !calls(run, bump) {
		t.Fatalf("no edge from run to bump through the method-value binding")
	}
}

func TestCallGraphClosure(t *testing.T) {
	src := `package p

func run() int {
	g := func() int { return 1 }
	return g()
}
`
	pkg, mod := buildTestIndex(t, src, "example.com/p")
	g := mod.graphs[pkg.Path]
	var resolved bool
	for _, f := range pkg.Files {
		ast.Inspect(f, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "g" {
				for _, tgt := range g.calleesOf(call) {
					if tgt.lit != nil {
						resolved = true
					}
				}
			}
			return true
		})
	}
	if !resolved {
		t.Fatalf("call through closure variable g did not resolve to the literal")
	}
}

func TestCallGraphInterfaceDispatch(t *testing.T) {
	src := `package p

type iface interface{ m() }

type a struct{}

func (a) m() {}

type b struct{}

func (b) m() {}

func call(i iface) { i.m() }
`
	pkg, mod := buildTestIndex(t, src, "example.com/p")
	g := mod.graphs[pkg.Path]
	call := declaredNode(t, g, "call")
	ma := declaredNode(t, g, "a).m")
	mb := declaredNode(t, g, "b).m")
	if !calls(call, ma) || !calls(call, mb) {
		t.Fatalf("interface dispatch should reach both implementations; got a=%v b=%v", calls(call, ma), calls(call, mb))
	}
}

func TestCallGraphSCCOrder(t *testing.T) {
	src := `package p

func odd(n int) bool {
	if n == 0 {
		return false
	}
	return even(n - 1)
}

func even(n int) bool {
	if n == 0 {
		return true
	}
	return odd(n - 1)
}

func caller(n int) bool { return odd(n) }
`
	pkg, mod := buildTestIndex(t, src, "example.com/p")
	g := mod.graphs[pkg.Path]
	odd := declaredNode(t, g, "odd")
	even := declaredNode(t, g, "even")
	caller := declaredNode(t, g, "caller")

	sccOf := func(n *funcNode) int {
		for i, scc := range g.sccs {
			for _, m := range scc {
				if m == n {
					return i
				}
			}
		}
		t.Fatalf("%s not in any SCC", n.name)
		return -1
	}
	if sccOf(odd) != sccOf(even) {
		t.Fatalf("mutual recursion should land odd and even in one SCC")
	}
	if sccOf(odd) >= sccOf(caller) {
		t.Fatalf("SCC order must be callee-first: odd at %d, caller at %d", sccOf(odd), sccOf(caller))
	}
	// The recursive SCC still gets summaries (fixpoint terminated).
	if odd.sum == nil || even.sum == nil {
		t.Fatalf("recursive SCC missing summaries")
	}
}
