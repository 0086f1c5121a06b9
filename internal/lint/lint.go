// Package lint holds the repository's one static check, errcheck, and the
// stdlib-only module loader it runs on (go/parser + go/ast + go/types; no
// golang.org/x/tools). The root lint_test.go runs the check over every
// non-test package in tier-1.
//
// errcheck stays static because no test can see what it catches: a
// dropped error from a call that does not fail in a test run, such as the
// Sync in checkpoint.Save. Every other property the simulation's numbers
// rest on (determinism, unit and ledger consistency, parse errors) is held
// by a tier-1 test instead; DESIGN.md ("Determinism & lint invariants")
// names which.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding: a position and a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
}

// ErrCheck reports every statement-level call into io, os, bufio,
// encoding/* or compress/* whose error result is dropped on the floor: a
// truncated checkpoint or manifest, or a silently corrupt report. The
// callee filter alone scopes the check, so it runs module-wide. Only
// expression statements are flagged: assigning any result (including to
// _) is an explicit, greppable acknowledgement, and `defer f.Close()` on
// read paths is the accepted idiom, so defer and go statements are exempt.
// Diagnostics come in package order, then source order.
func ErrCheck(fset *token.FileSet, pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				stmt, ok := n.(*ast.ExprStmt)
				if !ok {
					return true
				}
				call, ok := stmt.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil || !returnsError(fn) {
					return true
				}
				path, recv := calleeOrigin(fn)
				if !errcheckPackage(path) {
					return true
				}
				name := fn.Name()
				if recv != "" {
					name = recv + "." + name
				}
				out = append(out, Diagnostic{
					Pos:     fset.Position(call.Pos()),
					Message: fmt.Sprintf("error returned by %s is discarded; check it or assign it explicitly", name),
				})
				return true
			})
		}
	}
	return out
}

// errcheckPackage reports whether dropped errors from the callee package
// at path are flagged.
func errcheckPackage(path string) bool {
	switch path {
	case "io", "os", "bufio":
		return true
	}
	return strings.HasPrefix(path, "encoding/") || strings.HasPrefix(path, "compress/")
}

// calleeFunc resolves a call expression to the package-level function or
// method it invokes, or nil for builtins, conversions and function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
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
