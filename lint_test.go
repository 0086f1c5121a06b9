// Tier-1 errcheck: `go test ./...` fails if any production call into io,
// os, bufio, encoding/* or compress/* drops its error as a bare statement
// (see internal/lint). It is the repository's one static check, kept
// because a dropped error from a call that does not fail in a test run,
// such as the Sync in checkpoint.Save, turns no test red. The other
// invariants the simulation's numbers rest on are held by tests that run
// the code: same-seed determinism, the 16 golden Results, the energy
// ledger identities in internal/core's TestEnergyComponentsSumToTotal, the
// per-frame allocation and resume tests, and the parse-error tests; the
// "Determinism & lint invariants" section of DESIGN.md maps each property
// to its test.
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
	for _, d := range lint.ErrCheck(fset, pkgs) {
		t.Errorf("%s", d)
	}
}
