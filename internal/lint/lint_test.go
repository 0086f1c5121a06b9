package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestGolden runs every analyzer over its testdata corpus: files seeded
// with violations (`// want` assertions), files whose violations carry
// lint:ignore directives (zero surviving diagnostics), and clean files.
// The unitsafety corpus holds the unit-suffix name cases of the analyzer
// unitflow absorbed; it keeps its own directory and runs through unitflow.
func TestGolden(t *testing.T) {
	for _, a := range All() {
		t.Run(a.Name, func(t *testing.T) { runGolden(t, a, a.Name) })
	}
	t.Run("unitsafety", func(t *testing.T) { runGolden(t, UnitFlow, "unitsafety") })
}

// runGolden checks every file of testdata/<corpus>/ against analyzer a.
func runGolden(t *testing.T, a *Analyzer, corpus string) {
	t.Helper()
	files, err := GoldenFiles(".", corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		problems, err := RunGoldenFile(a, file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, p := range problems {
			t.Errorf("%s", p)
		}
	}
}

// checkSource type-checks an inline source string and runs the given
// analyzers over it.
func checkSource(t *testing.T, src, pkgPath string, analyzers []*Analyzer) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckFile(fset, f, pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	return RunAnalyzers(fset, []*Package{pkg}, analyzers)
}

func TestMalformedIgnoreDirective(t *testing.T) {
	src := `package p

//lint:ignore
var X = 1
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{SelfCompare})
	if len(diags) != 1 || diags[0].Check != "lintdirective" {
		t.Fatalf("want one lintdirective diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "malformed") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A directive missing the reason is malformed even when it names a check:
// the written justification is the point.
func TestIgnoreDirectiveRequiresReason(t *testing.T) {
	src := `package p

//lint:ignore floateq
var X = 1
`
	diags := checkSource(t, src, "example.com/p", nil)
	if len(diags) != 1 || diags[0].Check != "lintdirective" {
		t.Fatalf("want one lintdirective diagnostic, got %v", diags)
	}
}

func TestSuppressionDoesNotLeakAcrossLines(t *testing.T) {
	src := `package p

//lint:ignore floateq reason applies to the next line only
var gap = 1

func eq(a, b float64) bool { return a == b }
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{FloatEq})
	if len(diags) != 1 || diags[0].Check != "floateq" {
		t.Fatalf("directive two lines away must not suppress; got %v", diags)
	}
}

func TestIgnoreAllMatchesEveryCheck(t *testing.T) {
	src := `package p

func eq(a, b float64) bool {
	//lint:ignore all fixture
	return a == b
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{FloatEq})
	if len(diags) != 0 {
		t.Fatalf("lint:ignore all must suppress, got %v", diags)
	}
}

func TestByName(t *testing.T) {
	for _, a := range All() {
		if ByName(a.Name) != a {
			t.Fatalf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Fatal("ByName of unknown check must be nil")
	}
}

func TestUnitOfBoundaries(t *testing.T) {
	cases := []struct {
		name string
		dim  string
	}{
		{"energyPJ", "energy (pJ)"},
		{"busyPs", "time (ps)"},
		{"Ps", "time (ps)"},
		{"t1Ns", "time (ns)"},
		{"ComputeCycles", "cycle count"},
		{"freqMHz", "frequency (MHz)"},
		{"Caps", ""}, // lowercase "ps" is not the Ps unit
		{"ANs", ""},  // no camelCase boundary before the suffix
		{"frames", ""},
		{"staticMW", "power (mW)"},
	}
	for _, c := range cases {
		if got := suffixDim(c.name); got != c.dim {
			t.Errorf("suffixDim(%q) = %q; want %q", c.name, got, c.dim)
		}
	}
}

// TestLoadModuleSmoke loads this module and sanity-checks the loader: the
// package set covers the simulation subtrees and type-checks without
// errors (the tree builds, so any type error is a loader defect).
func TestLoadModuleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	fset, pkgs, err := LoadModule("../..")
	if err != nil {
		t.Fatal(err)
	}
	if fset == nil {
		t.Fatal("nil fset")
	}
	paths := map[string]bool{}
	for _, p := range pkgs {
		paths[p.Path] = true
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	for _, want := range []string{"mach", "mach/internal/sim", "mach/internal/core", "mach/cmd/machlint", "mach/internal/lint"} {
		if !paths[want] {
			t.Errorf("loader missed package %s (got %d packages)", want, len(pkgs))
		}
	}
}
