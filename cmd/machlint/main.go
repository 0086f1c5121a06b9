// Command machlint runs the repository's seven-analyzer static-analysis
// suite (see internal/lint): determinism, unit dimensions, error checks,
// float equality and self-comparison invariants that keep the simulation
// replayable and its units honest. The flow-sensitive checks (unitflow,
// pathcheck) run per-function CFGs so a unit mixed or an error dropped
// three blocks after its definition is still caught, and staleignore flags
// lint:ignore directives whose finding no longer exists.
//
// Usage:
//
//	go run ./cmd/machlint ./...          # lint the whole module
//	go run ./cmd/machlint -checks determinism,floateq ./...
//	go run ./cmd/machlint -list          # describe the available checks
//	go run ./cmd/machlint -json ./...    # machine-readable diagnostics
//
// With -json, diagnostics are emitted as one JSON array of objects with
// "file", "line", "col", "analyzer" and "message" fields (empty array when
// clean), for editors and CI problem matchers.
//
// Package patterns are accepted for familiarity but machlint always
// analyzes the module containing the working directory as a whole: the
// checks are cross-cutting invariants, not per-package style rules.
// Exit status: 0 clean, 1 diagnostics reported, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mach/internal/lint"
)

// jsonDiagnostic is the -json wire shape of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run())
}

func run() int {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list available checks and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *checks != "" {
		analyzers = nil
		for _, name := range strings.Split(*checks, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "machlint: unknown check %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "machlint: %v\n", err)
		return 2
	}

	fset, pkgs, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "machlint: %v\n", err)
		return 2
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "machlint: warning: %s: %v\n", p.Path, terr)
		}
	}

	diags := lint.RunAnalyzers(fset, pkgs, analyzers)
	relName := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil {
			return r
		}
		return name
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     relName(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Check,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "machlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s [%s]\n", relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message, d.Check)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "machlint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}
