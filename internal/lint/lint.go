// Package lint implements intlint, the repo-specific static-analysis suite
// that mechanically enforces the contracts the scheduler's correctness and
// reproducibility depend on: seed-determinism of the simulation packages,
// the transient-packet relinquish rule, and the probe-codec scratch-aliasing
// rules. Snapshot and answer immutability need no analyzer: a published
// collector.Topology has no exported field, and core hands out every answer
// as the caller's own copy.
//
// The package is a small, dependency-free re-implementation of the parts of
// golang.org/x/tools/go/analysis that the suite needs (the container that
// builds this repo is offline, so the x/tools module is not available). The
// Analyzer/Pass/Diagnostic surface is API-compatible with go/analysis for
// the subset used here, so the analyzers port to the upstream framework
// unchanged if the dependency ever becomes available.
//
// The suite runs as a test:
//
//	go test ./internal/lint/
//
// TestModuleIsClean loads the whole module from source and fails on any
// finding; the other tests check each analyzer against its fixture under
// testdata.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one analysis: its name, documentation, and entry
// point. It mirrors golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description of what the analyzer checks.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) (any, error)
}

// Pass provides one analyzer run with a single type-checked package and a
// sink for diagnostics. It mirrors go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the full intlint suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimDeterminismAnalyzer,
		TransientPacketAnalyzer,
		ScratchAliasAnalyzer,
	}
}

// inTestFile reports whether pos is inside a _test.go file. The analyzers
// skip test files by design: tests deliberately alias recycled packets to
// assert identity reuse and measure wall time; the contracts the suite
// enforces are about production sim/daemon code.
func (p *Pass) inTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f == nil || strings.HasSuffix(f.Name(), "_test.go")
}

// nonTestFiles returns the pass's files excluding _test.go files.
func (p *Pass) nonTestFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if !p.inTestFile(f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}

// funcObj resolves the called function/method object of a call expression,
// or nil for calls through function values and type conversions.
func (p *Pass) funcObj(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Name() != name || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isMethodOf reports whether fn is a method named name whose receiver's
// (pointer-stripped) named type is pkgPath.typeName.
func isMethodOf(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := namedOf(sig.Recv().Type())
	return named != nil && named.Obj().Name() == typeName &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath
}

// namedOf strips pointers and aliases and returns the named type, if any.
func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// rootIdent returns the base identifier of a selector/index/slice/paren/
// star/address chain (x in x.a.b[i][:n]), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return nil
			}
			e = v.X
		default:
			return nil
		}
	}
}

// exprPath renders a stable identity for an lvalue chain rooted at an
// identifier: the root's object pointer plus the field path, ignoring
// indexing and slicing (p.encScratch[:0] and p.encScratch share a path).
// The empty string means the expression is not a simple rooted chain.
func exprPath(info *types.Info, e ast.Expr) string {
	var fields []string
	for {
		switch v := e.(type) {
		case *ast.Ident:
			obj := info.ObjectOf(v)
			if obj == nil {
				return ""
			}
			return fmt.Sprintf("%p%s", obj, strings.Join(fields, ""))
		case *ast.SelectorExpr:
			fields = append([]string{"." + v.Sel.Name}, fields...)
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return ""
			}
			e = v.X
		default:
			return ""
		}
	}
}
