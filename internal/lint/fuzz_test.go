package lint

import (
	"go/parser"
	"go/token"
	"testing"
)

// FuzzLoaderParse drives arbitrary source through the loader's
// single-file pipeline — parse, type-check with soft-error collection —
// and then errcheck. The invariant is robustness: malformed, half-typed or
// adversarial source may produce diagnostics or be rejected, but must
// never panic the loader or the check. CI runs this as a bounded smoke
// (-fuzztime 30s); longer local runs just use `go test -fuzz`.
func FuzzLoaderParse(f *testing.F) {
	seeds := []string{
		"package p\n",
		"package p\n\nfunc f() {}\n",
		"package p\n\ntype Joules float64\n\nfunc f(a, b Joules) Joules { return a + b }\n",
		"package p\n\nfunc f(n int) int {\n\tx := 0\nloop:\n\tfor i := 0; i < n; i++ {\n\t\tswitch i {\n\t\tcase 0:\n\t\t\tfallthrough\n\t\tcase 1:\n\t\t\tcontinue loop\n\t\tdefault:\n\t\t\tbreak loop\n\t\t}\n\t}\n\tgoto done\ndone:\n\treturn x\n}\n",
		"package p\n\nfunc mayFail() error { return nil }\n\nfunc f(cond bool) error {\n\terr := mayFail()\n\tif cond {\n\t\terr = mayFail()\n\t}\n\treturn err\n}\n",
		"package p\n\nimport \"os\"\n\nfunc f(fh *os.File) {\n\tfh.Sync()\n\tdefer fh.Close()\n}\n",
		"package p\n\nimport \"io\"\n\nfunc f(w io.Writer, r io.Reader) { io.Copy(w, r) }\n",
		"package p\n\nimport \"os\"\n\nfunc f() { undefined.Sync(); os.Remove() }\n",
		"package p\n\nfunc f() { select {} }\n",
		"package p\n\nfunc f(ch chan int) {\n\tselect {\n\tcase v := <-ch:\n\t\t_ = v\n\tdefault:\n\t}\n}\n",
		"package p\n\nfunc f() {\n\tdefer func() { recover() }()\n\tpanic(1)\n}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // bound type-check cost; larger inputs add no new shapes
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return
		}
		pkg, err := CheckFile(fset, file, "example.com/fuzz")
		if err != nil {
			return
		}
		// Half-typed packages (pkg.TypeErrors non-empty) are checked on
		// purpose: the loader surfaces soft errors and keeps going, so
		// errcheck must tolerate partially filled type info.
		ErrCheck(fset, []*Package{pkg})
	})
}
