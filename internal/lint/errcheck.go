package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrCheck is a narrow errcheck: a call into io, os, bufio, encoding/* or
// compress/* whose error result is dropped on the floor means a truncated
// checkpoint or manifest, or a silently-corrupt report. The callee filter
// alone scopes the check, so it runs module-wide. Only expression
// statements are flagged — assigning any result (including to _) is an
// explicit, greppable acknowledgement, and `defer f.Close()` on read paths
// is the accepted idiom so defer/go statements are exempt.
var ErrCheck = &Analyzer{
	Name: "errcheck",
	Doc: "flag statement-level calls into io/os/bufio/encoding/compress that discard " +
		"an error result",
	Run: runErrCheck,
}

// errcheckPackages are the callee packages whose dropped errors are
// flagged.
func errcheckPackage(path string) bool {
	switch path {
	case "io", "os", "bufio":
		return true
	}
	return strings.HasPrefix(path, "encoding/") || strings.HasPrefix(path, "compress/")
}

func runErrCheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || !returnsError(fn) {
				return true
			}
			pkg, recv := calleeOrigin(fn)
			if !errcheckPackage(pkg) {
				return true
			}
			name := fn.Name()
			if recv != "" {
				name = recv + "." + name
			}
			pass.Reportf(call.Pos(), "error returned by %s is discarded; check it or assign it explicitly", name)
			return true
		})
	}
}

// returnsError reports whether fn's last result is an error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return last.String() == "error"
}

// calleeOrigin returns the package path that owns fn — for methods, the
// package of the receiver's named type — plus a receiver type name for
// diagnostics.
func calleeOrigin(fn *types.Func) (pkgPath, recvName string) {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Path(), named.Obj().Name()
		}
		return "", ""
	}
	if fn.Pkg() == nil {
		return "", ""
	}
	return fn.Pkg().Path(), ""
}
