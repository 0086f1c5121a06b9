// Tier-1 enforcement of the machlint invariants: `go test ./...` fails if
// any future change reintroduces wall-clock time or global randomness into
// the simulation packages, mixes unit-typed or unit-suffixed quantities
// (including flow-sensitively, after the dimension went through float64),
// leaves an error unchecked on some control-flow path, compares floats for
// equality, compares a value with itself, drops an I/O error, or leaves a
// stale lint:ignore directive behind. This is the same suite
// `go run ./cmd/machlint ./...` runs; see internal/lint and the
// "Determinism & lint invariants" / "machlint v2" sections of DESIGN.md.
// The per-frame step's allocation freedom, checkpoint fidelity and energy
// accounting are checked dynamically instead, by internal/core's
// TestStepFrameZeroAllocs, resume tests and TestEnergyComponentsSumToTotal.
package mach

import (
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
