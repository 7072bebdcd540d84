package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks packages of this module from source, resolving
// module-internal imports by walking the module tree and everything else
// through the standard library's source importer. It exists so the suite
// and its analysistest harness can run without network access, export data,
// or golang.org/x/tools: the only inputs are GOROOT and the module checkout.
type Loader struct {
	Fset       *token.FileSet
	ModuleRoot string
	ModulePath string

	std     types.ImporterFrom
	pkgs    map[string]*LoadedPackage // by import path
	loading map[string]bool           // cycle guard
}

// LoadedPackage is one type-checked package plus its syntax.
type LoadedPackage struct {
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewLoader creates a loader for the module rooted at moduleRoot (the
// directory containing go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	modPath, err := readModulePath(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The source importer type-checks the standard library from GOROOT
	// source via go/build. Disable cgo so packages like net resolve to
	// their pure-Go variants; type checking never needs the cgo halves.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       make(map[string]*LoadedPackage),
		loading:    make(map[string]bool),
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
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
	return "", fmt.Errorf("no module directive in %s", gomod)
}

// Import implements types.Importer for the type checker: module-internal
// paths load from source under the module root; "unsafe" and the standard
// library come from the stdlib importers.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		lp, err := l.LoadDir(filepath.Join(l.ModuleRoot, rel), path)
		if err != nil {
			return nil, err
		}
		return lp.Pkg, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the package in dir under the given import
// path. Test files (_test.go) are excluded: the analyzers skip them anyway,
// and excluding them keeps external-test-package plumbing out of the
// loader. Results are memoized by import path.
func (l *Loader) LoadDir(dir, importPath string) (*LoadedPackage, error) {
	if lp, ok := l.pkgs[importPath]; ok {
		return lp, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, err)
	}
	lp := &LoadedPackage{Path: importPath, Dir: dir, Files: files, Pkg: pkg, Info: info}
	l.pkgs[importPath] = lp
	return lp, nil
}

// LoadModule loads every non-test package under the module root, skipping
// testdata, hidden, and results directories. Packages are returned sorted
// by import path.
func (l *Loader) LoadModule() ([]*LoadedPackage, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "results" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []*LoadedPackage
	sort.Strings(dirs)
	for _, dir := range dirs {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		importPath := l.ModulePath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		lp, err := l.LoadDir(dir, importPath)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// Finding is one diagnostic attributed to the analyzer that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// RunAnalyzers applies the given analyzers to a type-checked package and
// returns the findings sorted by position.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, a := range analyzers {
		a := a
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			Report: func(d Diagnostic) {
				findings = append(findings, Finding{Analyzer: a.Name, Pos: d.Pos, Message: d.Message})
			},
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sort.SliceStable(findings, func(i, j int) bool { return findings[i].Pos < findings[j].Pos })
	return findings, nil
}
