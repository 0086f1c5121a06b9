package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path, e.g. "mach/internal/sim"
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects soft type-checking problems. A tree that passes
	// `go build` produces none; they are surfaced so the root lint test can
	// fail rather than silently check a half-typed package.
	TypeErrors []error
}

// LoadModule parses and type-checks every non-test package under the module
// rooted at dir, using only the standard library: module-internal imports
// resolve against the packages being loaded (in dependency order) and all
// other imports resolve through the stdlib source importer. Test files are
// excluded by design: errcheck polices production I/O, and tests may drop
// errors from fixtures they build themselves.
func LoadModule(root string) (*token.FileSet, []*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	byPath := map[string]*Package{}
	var order []string

	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		files, perr := parseDir(fset, path)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		byPath[importPath] = &Package{Path: importPath, Files: files}
		order = append(order, importPath)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(order)

	sorted, err := topoSort(byPath, order, modPath)
	if err != nil {
		return nil, nil, err
	}

	imp := &moduleImporter{
		modPath: modPath,
		local:   byPath,
		std:     importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for _, path := range sorted {
		pkg := byPath[path]
		if err := typeCheck(fset, pkg, imp); err != nil {
			return nil, nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return fset, pkgs, nil
}

// parseDir parses the non-test Go files of one directory, returning nil if
// the directory contains none.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// internalImports lists the module-internal packages a package imports.
func internalImports(pkg *Package, modPath string) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if (p == modPath || strings.HasPrefix(p, modPath+"/")) && !seen[p] {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Strings(out)
	return out
}

// topoSort orders packages so every package appears after its
// module-internal dependencies.
func topoSort(byPath map[string]*Package, order []string, modPath string) ([]string, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var sorted []string
	var visit func(path string, chain []string) error
	visit = func(path string, chain []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(chain, " -> "), path)
		}
		state[path] = visiting
		pkg, ok := byPath[path]
		if !ok {
			return fmt.Errorf("lint: import of %s not found in module", path)
		}
		for _, dep := range internalImports(pkg, modPath) {
			if err := visit(dep, append(chain, path)); err != nil {
				return err
			}
		}
		state[path] = done
		sorted = append(sorted, path)
		return nil
	}
	for _, path := range order {
		if err := visit(path, nil); err != nil {
			return nil, err
		}
	}
	return sorted, nil
}

// moduleImporter resolves module-internal imports from the already-checked
// package set and everything else (the standard library) from source.
type moduleImporter struct {
	modPath string
	local   map[string]*Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		pkg, ok := m.local[path]
		if !ok || pkg.Types == nil {
			return nil, fmt.Errorf("lint: internal package %s not yet checked", path)
		}
		return pkg.Types, nil
	}
	return m.std.Import(path)
}

// typeCheck runs go/types over one package, collecting soft errors. Info
// records only Uses, the one map errcheck reads to resolve callees.
func typeCheck(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// A non-nil err beside a usable package only repeats the soft errors
	// already collected through conf.Error.
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, info)
	if tpkg == nil {
		return err
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// CheckFile type-checks a single standalone file as its own package with
// the given import path, for the errcheck table tests and the loader fuzz
// target. Imports resolve through the stdlib source importer only.
func CheckFile(fset *token.FileSet, f *ast.File, path string) (*Package, error) {
	pkg := &Package{Path: path, Files: []*ast.File{f}}
	imp := importer.ForCompiler(fset, "source", nil)
	if err := typeCheck(fset, pkg, imp); err != nil {
		return nil, err
	}
	return pkg, nil
}
