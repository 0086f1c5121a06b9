package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// errcheckPrelude opens the errcheck cases' file: a package named like the
// I/O layer, with every callee package the check covers (and fmt, which it
// does not) in scope. Each case becomes one function over the I/O types.
const errcheckPrelude = `package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

var (
	_ = bufio.NewWriter
	_ = gzip.NewWriter
	_ = json.Marshal
	_ = fmt.Sprint
	_ = io.Copy
	_ = os.Remove
)
`

// TestGolden holds each static check to its corpus of cases; errcheck is the
// one check left.
func TestGolden(t *testing.T) {
	t.Run("errcheck", testErrCheckCorpus)
}

// testErrCheckCorpus holds errcheck to its callee set and its exemptions.
// Each case is a function body over the I/O types; want is the callee name
// each of its diagnostics must quote, in order (nil: clean). All cases share
// one file, so the standard library is type-checked from source once.
func testErrCheckCorpus(t *testing.T) {
	cases := []struct {
		name, stmt string
		want       []string
	}{
		{"method of an encoding type", `enc.Encode(42)`, []string{"Encoder.Encode"}},
		{"io function", `io.Copy(w, r)`, []string{"Copy"}},
		{"os method Close", `f.Close()`, []string{"File.Close"}},
		{"os method Sync", `f.Sync()`, []string{"File.Sync"}},
		{"os function", `os.Remove("/tmp/x")`, []string{"Remove"}},
		{"bufio method", `bw.Write(nil)`, []string{"Writer.Write"}},
		{"compress method", `zw.Close()`, []string{"Writer.Close"}},
		{"interface method of io.Writer", `w.Write(nil)`, []string{"Writer.Write"}},
		{"parenthesized callee", `(f.Sync)()`, []string{"File.Sync"}},
		{"two drops, source order", "f.Sync()\n\tf.Close()", []string{"File.Sync", "File.Close"}},
		{"drop inside a closure", "func() { f.Sync() }()", []string{"File.Sync"}},
		{"checked in an if", "if err := enc.Encode(42); err != nil {\n\t\treturn err\n\t}", nil},
		{"checked multi-value", "if _, err := io.Copy(w, r); err != nil {\n\t\treturn err\n\t}", nil},
		{"assigned to blank", `_ = f.Close()`, nil},
		{"deferred", `defer f.Close()`, nil},
		{"go statement", `go f.Sync()`, nil},
		{"fmt is outside the callee set", `fmt.Fprintf(w, "done")`, nil},
		{"no error result", `bw.Available()`, nil},
		{"builtin", `print()`, nil},
		{"function value", "g := f.Sync\n\tg()", nil},
		{"no result", `bw.Reset(w)`, nil},
		{"not a call", `<-make(chan int)`, nil},
		{"method of an unnamed interface", "var c interface{ Close() error } = f\n\tc.Close()", nil},
	}
	var sb strings.Builder
	sb.WriteString(errcheckPrelude)
	for i, c := range cases {
		fmt.Fprintf(&sb, "\nfunc case%d(f *os.File, w io.Writer, bw *bufio.Writer, zw *gzip.Writer, enc *json.Encoder, r io.Reader) error {\n\t%s\n\treturn nil\n}\n", i, c.stmt)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", sb.String(), parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckFile(fset, f, "example.com/trace")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("cases do not type-check: %v", pkg.TypeErrors[0])
	}
	diags := ErrCheck(fset, []*Package{pkg})

	// Each case's diagnostics are the ones inside its function; none may
	// fall outside every case.
	byCase := make([][]Diagnostic, len(cases))
	inCase := 0
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		i, err := strconv.Atoi(strings.TrimPrefix(fd.Name.Name, "case"))
		if err != nil {
			t.Fatalf("unexpected function %s", fd.Name.Name)
		}
		lo, hi := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
		for _, d := range diags {
			if d.Pos.Line >= lo && d.Pos.Line <= hi {
				byCase[i] = append(byCase[i], d)
				inCase++
			}
		}
	}
	if inCase != len(diags) {
		t.Errorf("%d diagnostics outside every case function: %v", len(diags)-inCase, diags)
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := byCase[i]
			if len(got) != len(c.want) {
				t.Fatalf("got %d diagnostics %v, want %d naming %v", len(got), got, len(c.want), c.want)
			}
			for j, d := range got {
				if d.Pos.Filename != "src.go" || !strings.Contains(d.Message, "error returned by "+c.want[j]+" is discarded") {
					t.Errorf("diagnostic %d = %v, want it to name %s", j, d, c.want[j])
				}
			}
		})
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "file.go", Line: 3, Column: 7},
		Message: "error returned by File.Sync is discarded",
	}
	if got := d.String(); got != "file.go:3:7: error returned by File.Sync is discarded" {
		t.Fatalf("Diagnostic.String() = %q", got)
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
	for _, want := range []string{"mach", "mach/internal/sim", "mach/internal/core", "mach/cmd/machsim", "mach/internal/lint"} {
		if !paths[want] {
			t.Errorf("loader missed package %s (got %d packages)", want, len(pkgs))
		}
	}
}

// writeModule lays out a throwaway module: files maps a slash path under
// the root to its contents.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLoadModule loads small modules: dependency order, the directories
// the walk skips, and every way a module fails to load.
func TestLoadModule(t *testing.T) {
	t.Run("dependency order and skipped directories", func(t *testing.T) {
		root := writeModule(t, map[string]string{
			"go.mod":            "// a comment line\nmodule example.com/m\n",
			"a/a.go":            "package a\n\nimport \"example.com/m/b\"\n\nvar X = b.Y\n",
			"b/b.go":            "package b\n\nvar Y = 1\n",
			"b/b_test.go":       "package b\n\nthis file is never parsed\n",
			"testdata/t.go":     "package broken(\n",
			".hidden/h.go":      "package broken(\n",
			"_skip/s.go":        "package broken(\n",
			"vendor/v/v.go":     "package broken(\n",
			"empty/README.md":   "no Go files here\n",
			"root.go":           "package m\n\nimport _ \"example.com/m/a\"\n",
			"b/.scratch.go":     "package broken(\n",
			"a/notes/notes.txt": "",
			"b/sub/sub.go":      "package sub\n",
			"b/sub/sub_test.go": "package sub\n",
		})
		_, pkgs, err := LoadModule(root)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range pkgs {
			got = append(got, p.Path)
			if len(p.TypeErrors) > 0 {
				t.Errorf("%s: %v", p.Path, p.TypeErrors)
			}
		}
		want := "example.com/m/b example.com/m/a example.com/m example.com/m/b/sub"
		if strings.Join(got, " ") != want {
			t.Fatalf("load order %v, want %s", got, want)
		}
	})

	failures := []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"no go.mod", map[string]string{"a.go": "package a\n"}, "go.mod"},
		{"no module line", map[string]string{"go.mod": "go 1.24\n"}, "no module declaration"},
		{"syntax error", map[string]string{"go.mod": "module m\n", "a.go": "package a(\n"}, "expected"},
		{"import cycle", map[string]string{
			"go.mod": "module m\n",
			"a/a.go": "package a\n\nimport _ \"m/b\"\n",
			"b/b.go": "package b\n\nimport _ \"m/a\"\n",
		}, "import cycle"},
		{"missing internal package", map[string]string{
			"go.mod": "module m\n",
			"a/a.go": "package a\n\nimport _ \"m/nope\"\n",
		}, "not found in module"},
		{"unknown standard package", map[string]string{
			"go.mod": "module m\n",
			"a/a.go": "package a\n\nimport _ \"no/such/stdpkg\"\n",
		}, ""},
	}
	for _, c := range failures {
		t.Run(c.name, func(t *testing.T) {
			_, pkgs, err := LoadModule(writeModule(t, c.files))
			if c.want == "" {
				// An unresolvable import is a soft type error, not a
				// load failure.
				if err != nil || len(pkgs) != 1 || len(pkgs[0].TypeErrors) == 0 {
					t.Fatalf("err %v, %d packages; want one package with type errors", err, len(pkgs))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err %v, want one mentioning %q", err, c.want)
			}
		})
	}
}
