// Tier-1 enforcement of the machlint invariants: `go test ./...` fails if
// any future change reintroduces wall-clock time or global randomness into
// the simulation packages, mixes unit-typed or unit-suffixed quantities
// (including flow-sensitively, after the dimension went through float64),
// drops or double-counts a produced joule, leaves an error unchecked on
// some control-flow path, compares floats for equality, compares a value
// with itself, drops an I/O error, leaves a snapshotted field unrestored,
// allocates on the per-frame hot path, or leaves a stale lint:ignore
// directive behind. This is the same suite `go run ./cmd/machlint ./...`
// runs; see internal/lint and the "Determinism & lint invariants" /
// "machlint v2" sections of DESIGN.md. TestMachlintCatchesMutations plants
// violations in a copy of the module to prove the analyzers guarding
// invariants a green test run cannot see still fire.
package mach

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mach/internal/lint"
)

func TestMachlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	fset, pkgs, err := lint.LoadModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, terr)
		}
	}
	diags := lint.RunAnalyzers(fset, pkgs, lint.All())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Log("fix the findings or add `//lint:ignore <check> <reason>` where the code is deliberately exempt (see README.md)")
	}
}

// TestMachlintCatchesMutations plants one violation per case in a copy of
// the module and requires the named analyzer to report a finding in the
// edited file: statecheck for snapshot coverage, allocheck for hot-path
// allocation freedom (the static half of internal/core's
// TestStepFrameZeroAllocs). A silent analyzer here has gone blind.
func TestMachlintCatchesMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module once per mutation")
	}
	cases := []struct {
		name, file, analyzer string
		edit                 func(src string) (string, bool)
	}{
		{"dropped restore write", "internal/dram/dram.go", "statecheck",
			deleteLines("m.energy = st.Energy")},
		{"deleted lint:derived annotations", "internal/core/runner.go", "statecheck",
			deleteLines("lint:derived")},
		{"per-frame allocation in StepFrame", "internal/core/runner.go", "allocheck",
			func(src string) (string, bool) {
				const root = "func (r *Runner) StepFrame() {\n"
				return strings.Replace(src, root, root+"\t_ = make([]byte, 64)\n", 1), strings.Contains(src, root)
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			copyLintedSources(t, ".", dir)
			path := filepath.Join(dir, filepath.FromSlash(c.file))
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mutated, ok := c.edit(string(src))
			if !ok {
				t.Fatalf("%s no longer holds the line this mutation edits; retarget the case", c.file)
			}
			if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			fset, pkgs, err := lint.LoadModule(dir)
			if err != nil {
				t.Fatalf("loading mutated module: %v", err)
			}
			diags := lint.RunAnalyzers(fset, pkgs, []*lint.Analyzer{lint.ByName(c.analyzer)})
			for _, d := range diags {
				if d.Check == c.analyzer && d.Pos.Filename == path {
					return
				}
			}
			t.Errorf("%s reported nothing in %s after the mutation; findings: %v", c.analyzer, c.file, diags)
		})
	}
}

// deleteLines returns an edit that drops every line containing substr, and
// reports whether there was one.
func deleteLines(substr string) func(string) (string, bool) {
	return func(src string) (string, bool) {
		lines := strings.SplitAfter(src, "\n")
		kept := lines[:0]
		for _, l := range lines {
			if !strings.Contains(l, substr) {
				kept = append(kept, l)
			}
		}
		return strings.Join(kept, ""), len(kept) < len(lines)
	}
}

// copyLintedSources copies go.mod and every file lint.LoadModule would
// parse from the module at src into dst, skipping what it skips: test
// files, dot files, and testdata, vendor, dot and underscore directories.
func copyLintedSources(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != src && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		goSource := strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".")
		if path != filepath.Join(src, "go.mod") && !goSource {
			return nil
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying module sources: %v", err)
	}
}
