// Package lint is a from-scratch static-analysis framework for this
// repository, built only on the standard library's go/parser, go/ast and
// go/types. It exists because the simulation's headline numbers (Fig 11
// energy splits, Table 3/4 savings, Region I-IV timing) are only meaningful
// if every run is bit-reproducible and energy/time units never silently mix
// — invariants that DESIGN.md promises but nothing else enforces
// mechanically.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis without
// depending on it: an Analyzer owns a Run function over a Pass, diagnostics
// carry exact token positions, and `//lint:ignore <check> <reason>`
// comments suppress individual findings. Golden-file tests under testdata/
// use `// want "regexp"` comments, exactly like analysistest.
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the check that produced it, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// Pass carries everything one analyzer needs to inspect one package.
type Pass struct {
	Fset *token.FileSet
	// Path is the package's import path; several analyzers scope
	// themselves to specific subtrees of the module.
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	check  string
	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// ExprString renders an expression compactly (for diagnostics and for
// structural equality checks).
func (p *Pass) ExprString(e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, p.Fset, e); err != nil {
		return fmt.Sprintf("%T", e)
	}
	return sb.String()
}

// Analyzer is one named check.
type Analyzer struct {
	// Name identifies the check in diagnostics and in
	// `//lint:ignore <name> <reason>` directives.
	Name string
	// Doc is a one-paragraph description shown by `machlint -list`.
	Doc string
	// Run inspects the package and reports diagnostics via pass.Reportf.
	Run func(*Pass)
}

// IgnorePrefix starts a suppression directive comment.
const IgnorePrefix = "//lint:ignore"

// ignoreDirective is one parsed `//lint:ignore <check> <reason>` comment.
type ignoreDirective struct {
	pos    token.Position
	checks []string // "all" matches any check
	// used records whether the directive suppressed at least one raw
	// diagnostic in this run; StaleIgnore reports the ones that did not.
	used bool
}

func (d ignoreDirective) matches(check string) bool {
	for _, c := range d.checks {
		if c == check || c == "all" {
			return true
		}
	}
	return false
}

// parseDirectives extracts suppression directives from a file, reporting a
// framework diagnostic for malformed ones (a directive without a reason is
// itself a finding: the whole point is the written justification).
func parseDirectives(fset *token.FileSet, f *ast.File, report func(Diagnostic)) []*ignoreDirective {
	var ds []*ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, IgnorePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			rest := strings.TrimPrefix(c.Text, IgnorePrefix)
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				report(Diagnostic{
					Pos:     pos,
					Check:   "lintdirective",
					Message: "malformed lint:ignore directive: want //lint:ignore <check> <reason>",
				})
				continue
			}
			ds = append(ds, &ignoreDirective{
				pos:    pos,
				checks: strings.Split(fields[0], ","),
			})
		}
	}
	return ds
}

// suppressed reports whether diagnostic d is covered by a directive on the
// same line or the line immediately above it, marking the directive used.
func suppressed(d Diagnostic, ds []*ignoreDirective) bool {
	hit := false
	for _, dir := range ds {
		if dir.pos.Filename != d.Pos.Filename || !dir.matches(d.Check) {
			continue
		}
		if dir.pos.Line == d.Pos.Line || dir.pos.Line == d.Pos.Line-1 {
			dir.used = true
			hit = true
			// Keep scanning: every directive covering this diagnostic is
			// earning its keep, not just the first.
		}
	}
	return hit
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }

	var directives []*ignoreDirective
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			directives = append(directives, parseDirectives(fset, f, collect)...)
		}
	}

	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Fset:   fset,
				Path:   pkg.Path,
				Files:  pkg.Files,
				Pkg:    pkg.Types,
				Info:   pkg.Info,
				check:  a.Name,
				report: collect,
			})
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if !suppressed(d, directives) {
			out = append(out, d)
		}
	}
	out = append(out, staleDirectives(directives, analyzers)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}

// StaleIgnore flags `//lint:ignore` directives that no longer suppress any
// finding, so triage notes cannot rot: a fixed finding leaves its ignore
// behind, and the next reader wastes time believing the violation is still
// there. The analyzer's Run is empty — the work happens inside
// RunAnalyzers, which is the only place that sees every directive and
// every raw (pre-suppression) diagnostic together. A directive naming
// specific checks is only reported when all of those checks actually ran
// (a subset `-checks` run says nothing about the others); a directive
// naming `all` is reported whenever it suppressed nothing. Stale findings
// bypass suppression — an `//lint:ignore all` comment must not be able to
// vouch for itself — so the only way to silence one is to delete or
// re-justify the directive.
var StaleIgnore = &Analyzer{
	Name: "staleignore",
	Doc: "flag lint:ignore directives that suppress no finding of the checks being run " +
		"(stale triage notes); delete or re-justify them",
	Run: func(*Pass) {},
}

// staleDirectives reports the unused directives, provided the staleignore
// analyzer is among those running.
func staleDirectives(directives []*ignoreDirective, analyzers []*Analyzer) []Diagnostic {
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	if !ran[StaleIgnore.Name] {
		return nil
	}
	var out []Diagnostic
	for _, dir := range directives {
		if dir.used {
			continue
		}
		applicable := true
		for _, c := range dir.checks {
			if c != "all" && !ran[c] {
				applicable = false
				break
			}
		}
		if !applicable {
			continue
		}
		out = append(out, Diagnostic{
			Pos:   dir.pos,
			Check: StaleIgnore.Name,
			Message: fmt.Sprintf("lint:ignore %s directive suppresses no finding; the violation it excused is gone — delete the directive",
				strings.Join(dir.checks, ",")),
		})
	}
	return out
}

// All returns the full analyzer suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		UnitFlow,
		PathCheck,
		FloatEq,
		SelfCompare,
		ErrCheck,
		StaleIgnore,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
