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

// //lint:derived is sugar for an ignore scoped to statecheck; without a
// reason it is malformed like any other directive.
func TestDerivedDirectiveRequiresReason(t *testing.T) {
	src := `package p

//lint:derived
var X = 1
`
	diags := checkSource(t, src, "example.com/p", nil)
	if len(diags) != 1 || diags[0].Check != "lintdirective" {
		t.Fatalf("want one lintdirective diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "lint:derived") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A derived annotation on a field Restore actually covers is stale, and
// staleignore says so in derived vocabulary.
func TestStaleDerivedAnnotation(t *testing.T) {
	src := `package p

type State struct{ X int64 }

type M struct {
	//lint:derived fixture: x is actually serialized, so this is stale
	x int64
}

func (m *M) Step() { m.x++ }

func (m *M) Snapshot() State { return State{X: m.x} }

func (m *M) Restore(st State) error {
	m.x = st.X
	return nil
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{StateCheck, StaleIgnore})
	if len(diags) != 1 || diags[0].Check != "staleignore" {
		t.Fatalf("want one staleignore diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "lint:derived annotation marks no un-snapshotted field") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A derived annotation doing real work both suppresses the statecheck
// finding and is not stale.
func TestDerivedAnnotationSuppresses(t *testing.T) {
	src := `package p

type State struct{ X int64 }

type M struct {
	x int64
	//lint:derived scratch is rebuilt by Step before every read
	scratch int64
}

func (m *M) Step() {
	m.x++
	m.scratch = m.x * 2
}

func (m *M) Snapshot() State { return State{X: m.x} }

func (m *M) Restore(st State) error {
	m.x = st.X
	return nil
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{StateCheck, StaleIgnore})
	if len(diags) != 0 {
		t.Fatalf("derived annotation must suppress and not be stale, got %v", diags)
	}
}

// //lint:hotpath without a reason is malformed: the reason documents why the
// function runs per frame.
func TestHotpathDirectiveRequiresReason(t *testing.T) {
	src := `package p

//lint:hotpath
func Step() {}
`
	diags := checkSource(t, src, "example.com/p", nil)
	if len(diags) != 1 || diags[0].Check != "lintdirective" {
		t.Fatalf("want one lintdirective diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "lint:hotpath") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A hotpath annotation that sits on anything but a function declaration
// resolves to no root; staleignore flags it in hotpath vocabulary.
func TestMisplacedHotpathAnnotation(t *testing.T) {
	src := `package p

//lint:hotpath fixture: this marks a variable, not a function
var X = 1

func Step() {
	_ = make([]byte, 8)
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{Allocheck, StaleIgnore})
	if len(diags) != 1 || diags[0].Check != "staleignore" {
		t.Fatalf("want one staleignore diagnostic, got %v", diags)
	}
	if !strings.Contains(diags[0].Message, "lint:hotpath annotation marks no function declaration") {
		t.Fatalf("unexpected message: %s", diags[0].Message)
	}
}

// A hotpath root doing real work both seeds the allocheck cone and is not
// stale.
func TestHotpathRootSeedsConeAndIsNotStale(t *testing.T) {
	src := `package p

//lint:hotpath fixture: per-frame entry point
func Step(n int) []byte {
	return make([]byte, n)
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{Allocheck, StaleIgnore})
	if len(diags) != 1 || diags[0].Check != "allocheck" {
		t.Fatalf("want one allocheck diagnostic and no staleness, got %v", diags)
	}
}

// In a subset run without allocheck, hotpath roots are never resolved, so
// staleignore must not flag them: applicability follows the directive's
// checks list, exactly like lint:ignore allocheck directives.
func TestHotpathAnnotationSafeInSubsetRuns(t *testing.T) {
	src := `package p

//lint:hotpath fixture: per-frame entry point
func Step(n int) []byte {
	return make([]byte, n)
}
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{FloatEq, StaleIgnore})
	if len(diags) != 0 {
		t.Fatalf("subset run without allocheck must not report hotpath staleness, got %v", diags)
	}
}

// Hotpath annotations are roots, not suppressions: an allocation on the
// line they annotate stays reported.
func TestHotpathAnnotationDoesNotSuppress(t *testing.T) {
	src := `package p

//lint:hotpath fixture: the directive must not vouch for this make
func Step(n int) []byte { return make([]byte, n) }
`
	diags := checkSource(t, src, "example.com/p", []*Analyzer{Allocheck})
	if len(diags) != 1 || diags[0].Check != "allocheck" {
		t.Fatalf("hotpath annotation must not suppress adjacent findings, got %v", diags)
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
