package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// passFor type-checks inline source and wraps it in a Pass the CFG and
// dataflow helpers can run against directly.
func passFor(t *testing.T, src string) *Pass {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckFile(fset, f, "example.com/p")
	if err != nil {
		t.Fatal(err)
	}
	for _, te := range pkg.TypeErrors {
		t.Fatalf("type error: %v", te)
	}
	return &Pass{Fset: fset, Path: pkg.Path, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, check: "test", report: func(Diagnostic) {}}
}

// funcBody finds the named function's body in the pass's single file.
func funcBody(t *testing.T, pass *Pass, name string) *ast.BlockStmt {
	t.Helper()
	for _, d := range pass.Files[0].Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// TestCFGControlShapes drives the graph builder through the statement
// forms the corpora do not reach — switch with fallthrough, type switch,
// select, goto in both directions, labeled break/continue — and asserts
// through pathcheck that every path still reads the error, i.e. the edges
// exist where the language says control can flow.
func TestCFGControlShapes(t *testing.T) {
	src := `package p

func mayFail() error { return nil }

func switchRead(mode int) error {
	err := mayFail()
	switch mode {
	case 0:
		return err
	case 1:
		fallthrough
	default:
		return err
	}
}

func selectRead(ch chan int) error {
	err := mayFail()
	select {
	case <-ch:
		return err
	default:
		return err
	}
}

func gotoForward() error {
	err := mayFail()
	goto done
done:
	return err
}

func gotoBackward(n int) error {
	err := mayFail()
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	return err
}

func labeledLoops(items [][]int) error {
	err := mayFail()
outer:
	for i := 0; i < len(items); i++ {
		for _, v := range items[i] {
			if v < 0 {
				continue outer
			}
			if v == 0 {
				break outer
			}
		}
	}
	return err
}

func deadCodeStillBuilt() error {
	err := mayFail()
	return err
	_ = err
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{PathCheck})
	if len(diags) != 0 {
		t.Fatalf("every function reads its error on all paths; got %v", diags)
	}
}

// TestCFGDropShapes is the complement: paths that genuinely miss the read
// must be found through the same statement forms.
func TestCFGDropShapes(t *testing.T) {
	src := `package p

func mayFail() error { return nil }

func switchNoDefault(mode int) int {
	err := mayFail()
	switch mode {
	case 0:
		_ = err
	}
	return 0
}

func typeSwitchDrop(v any) int {
	err := mayFail()
	switch x := v.(type) {
	case int:
		_ = x
		_ = err
	default:
		return 0
	}
	return 0
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{PathCheck})
	if len(diags) != 2 {
		t.Fatalf("want 2 pathcheck findings (missing-default fallthrough, type-switch default), got %v", diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "reaches function exit") {
			t.Errorf("unexpected message: %s", d.Message)
		}
	}
}

// TestTerminates checks the never-returns classification on every shape it
// special-cases, by position in the function body.
func TestTerminates(t *testing.T) {
	src := `package p

import (
	"fmt"
	"log"
	"os"
	"runtime"
)

type T struct{}

func (T) Fatal(args ...any) {}
func (T) Other()            {}

func f(t T) {
	panic("x")
	os.Exit(1)
	runtime.Goexit()
	log.Fatalln("x")
	fmt.Println("x")
	t.Fatal("x")
	t.Other()
}
`
	pass := passFor(t, src)
	body := funcBody(t, pass, "f")
	b := &cfgBuilder{pass: pass}
	want := []bool{true, true, true, true, false, true, false}
	i := 0
	for _, s := range body.List {
		es, ok := s.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call := es.X.(*ast.CallExpr)
		if got := b.terminates(call); got != want[i] {
			t.Errorf("terminates(%s) = %v, want %v", pass.ExprString(call), got, want[i])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("saw %d calls, want %d", i, len(want))
	}
}

// TestUnitFlowDimSources covers the dimension-inference corners: unary
// operands, indexed suffixed slices, struct-field suffixes, callee-name
// suffixes, and var-declaration propagation.
func TestUnitFlowDimSources(t *testing.T) {
	src := `package p

type Joules float64
type Watts float64

type rec struct{ totalPJ float64 }

func computePJ() float64 { return 1 }

func unary(j Joules, w Watts) float64 {
	e := float64(j)
	return -e + float64(w)
}

func index(j Joules) float64 {
	var energiesPJ [4]float64
	return energiesPJ[0] + float64(j)
}

func field(r rec, j Joules) float64 {
	return r.totalPJ + float64(j)
}

func callSuffix(j Joules) float64 {
	return computePJ() + float64(j)
}

func declProp(j Joules, w Watts) float64 {
	var e = float64(j)
	p := float64(w)
	return e + p
}

func rangeKillsFact(j Joules, xs []float64) float64 {
	x := float64(j)
	for _, x = range xs {
		_ = x
	}
	return x + float64(j)
}

func (r rec) sumPJ() float64 { return r.totalPJ }

func methodSuffix(r rec, j Joules) float64 {
	return r.sumPJ() + float64(j)
}

func binaryMergeAgrees(j1, j2 Joules, w Watts) float64 {
	e1, e2 := float64(j1), float64(j2)
	return (e1 + e2) + float64(w)
}

func binaryMergeLeftUnknown(j Joules, w Watts) float64 {
	e := float64(j)
	return (1.0 + e) + float64(w)
}

func twoResults() (float64, float64) { return 1, 2 }

func multiValueUnknown(j Joules, w Watts) float64 {
	a := float64(j)
	var b float64
	a, b = twoResults()
	_ = b
	return a + float64(w)
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{UnitFlow})
	if len(diags) != 8 {
		t.Fatalf("want 8 unitflow findings (unary, index, field, call, decl, method, two merges; range-killed and multi-value silent), got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "mixes") {
			t.Errorf("unexpected message: %s", d.Message)
		}
	}
}

// TestStaleIgnoreLifecycle: a directive that earns its keep stays silent, a
// directive suppressing nothing is flagged — but only when staleignore
// itself is in the run.
func TestStaleIgnoreLifecycle(t *testing.T) {
	src := `package p

func eq(a, b float64) bool {
	//lint:ignore floateq fixture: exact sentinel comparison
	return a == b
}

//lint:ignore floateq fixture: the finding this excused is long gone
var x = 1
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{FloatEq, StaleIgnore})
	if len(diags) != 1 || diags[0].Check != "staleignore" {
		t.Fatalf("want exactly the stale directive flagged, got %v", diags)
	}
	if diags[0].Pos.Line != 8 {
		t.Errorf("stale finding at line %d, want 8", diags[0].Pos.Line)
	}

	// Without staleignore in the run there is no verdict on directives.
	diags = checkSource(t, src, "example.com/p", []*Analyzer{FloatEq})
	if len(diags) != 0 {
		t.Fatalf("staleignore not running must report nothing, got %v", diags)
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "file.go", Line: 3, Column: 7},
		Check:   "unitflow",
		Message: "mixes things",
	}
	got := d.String()
	if got != "file.go:3:7: mixes things [unitflow]" {
		t.Fatalf("Diagnostic.String() = %q", got)
	}
}

func TestGoldenFilesMissing(t *testing.T) {
	if _, err := GoldenFiles(".", "no-such-analyzer"); err == nil {
		t.Fatal("want error for empty corpus directory")
	}
}

// TestRunGoldenFileErrors covers the harness's own failure modes: a want
// pattern that is not a valid regexp, and a file that does not type-check.
func TestRunGoldenFileErrors(t *testing.T) {
	dir := t.TempDir()

	badWant := filepath.Join(dir, "badwant.go")
	if err := os.WriteFile(badWant, []byte("package p\n\nvar x = 1 // want \"(\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunGoldenFile(FloatEq, badWant); err == nil {
		t.Error("want error for invalid want regexp")
	}

	badType := filepath.Join(dir, "badtype.go")
	if err := os.WriteFile(badType, []byte("package p\n\nvar x undefined\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunGoldenFile(FloatEq, badType); err == nil {
		t.Error("want error for file with type errors")
	}

	if _, err := RunGoldenFile(FloatEq, filepath.Join(dir, "missing.go")); err == nil {
		t.Error("want error for missing file")
	}
}

// TestUnmetWantFails: the harness must flag a want with no matching
// diagnostic, not just unexpected diagnostics.
func TestUnmetWantFails(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "unmet.go")
	src := "package p\n\nvar x = 1 // want \"never reported\"\n"
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	problems, err := RunGoldenFile(FloatEq, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "got none") {
		t.Fatalf("want one unmet-expectation problem, got %v", problems)
	}
}
