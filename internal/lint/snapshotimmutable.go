package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// snapshotExemptPackages build the shared structures and may mutate them:
// collector materializes Topology snapshots (the structure, its copy of the
// live slots, incremental SPT repair), so stores through a Topology are its
// job — before snap.Store; its own tests hold it to never writing one after.
var snapshotExemptPackages = map[string]bool{
	"intsched/internal/collector": true,
}

// SnapshotImmutableAnalyzer enforces the published-snapshot immutability
// contract.
var SnapshotImmutableAnalyzer = &Analyzer{
	Name: "snapshotimmutable",
	Doc: `forbid stores through published snapshots and cached rank views

Collector.Snapshot returns a shared *Topology served concurrently to every
caller until the epoch moves; RankCache.Lookup and RankMiss.Store hand out
*RankEntry values whose Ranked()/Shaped() results are zero-copy reslice
views of the cached backing array. All of it is immutable by contract: a store through
any of these values corrupts answers served to concurrent readers (and,
via Shaped's prefix reslicing, answers served to future callers). This
analyzer taint-tracks everything aliasing a snapshot, entry, or view
inside each function — including *collector.Topology parameters, which are
snapshots by construction outside the collector — and reports element or
field stores, appends (which may write into the shared backing array past
the view's length), copy-into, and in-place sorts. Reading, reslicing, and
rebinding are legal; mutation requires an explicit clone
(core.CloneCandidates) first.`,
	Run: runSnapshotImmutable,
}

func runSnapshotImmutable(pass *Pass) (any, error) {
	if snapshotExemptPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, file := range pass.nonTestFiles() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSnapshotFunc(pass, fd)
		}
	}
	return nil, nil
}

// snapState is the per-function taint state: exprPath strings of values
// aliasing a published snapshot or cached view.
type snapState struct {
	pass    *Pass
	tainted map[string]bool
	what    map[string]string // taint path -> human name of its seed
}

// seedCallResult reports whether a call yields a shared snapshot/view and
// names it. Only the first result of RankCache.Lookup is shared (the second
// is the miss handle, a plain value).
func seedCallResult(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.funcObj(call)
	switch {
	case isMethodOf(fn, "intsched/internal/collector", "Collector", "Snapshot"):
		return "topology snapshot", true
	case isMethodOf(fn, "intsched/internal/core", "RankCache", "Lookup"),
		isMethodOf(fn, "intsched/internal/core", "RankMiss", "Store"):
		return "cached rank entry", true
	case isMethodOf(fn, "intsched/internal/core", "RankEntry", "Ranked"),
		isMethodOf(fn, "intsched/internal/core", "RankEntry", "Shaped"):
		return "cached candidate view", true
	}
	return "", false
}

func checkSnapshotFunc(pass *Pass, fd *ast.FuncDecl) {
	st := &snapState{pass: pass, tainted: make(map[string]bool), what: make(map[string]string)}

	// Parameters of snapshot/entry type are published values: outside the
	// builder package every *Topology or *RankEntry a function receives
	// came (transitively) from Snapshot or the cache. Receivers are NOT
	// seeded: a method on the shared type itself is where sanctioned
	// internal mutation lives (RankEntry's once-guarded lazy byID init).
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.TypesInfo.Defs[name]
				if obj == nil {
					continue
				}
				if what, ok := sharedParamType(obj.Type()); ok {
					st.mark(objPath(obj), what)
				}
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			st.handleAssign(n)
		case *ast.IncDecStmt:
			if path := exprPath(pass.TypesInfo, n.X); st.extendsTaint(path) {
				st.reportStore(n.X, n.Pos())
			}
		case *ast.RangeStmt:
			st.handleRange(n)
		case *ast.CallExpr:
			st.handleCall(n)
		}
		return true
	})
}

// sharedParamType classifies parameter/receiver types that are published
// shared state by construction.
func sharedParamType(t types.Type) (string, bool) {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return "", false
	}
	switch {
	case named.Obj().Pkg().Path() == "intsched/internal/collector" && named.Obj().Name() == "Topology":
		return "topology snapshot", true
	case named.Obj().Pkg().Path() == "intsched/internal/core" && named.Obj().Name() == "RankEntry":
		return "cached rank entry", true
	}
	return "", false
}

func (st *snapState) mark(path, what string) {
	if path == "" {
		return
	}
	st.tainted[path] = true
	if _, ok := st.what[path]; !ok {
		st.what[path] = what
	}
}

// extendsTaint reports whether path refers to storage inside a tainted
// value: it equals a tainted path or extends one by a field selection
// (indexing and slicing don't change a path, so shaped[i].Delay extends
// shaped).
func (st *snapState) extendsTaint(path string) bool {
	if path == "" {
		return false
	}
	if st.tainted[path] {
		return true
	}
	for t := range st.tainted {
		if strings.HasPrefix(path, t+".") {
			return true
		}
	}
	return false
}

// taintName returns the seed description for a path that extends taint.
func (st *snapState) taintName(path string) string {
	if w, ok := st.what[path]; ok {
		return w
	}
	for t, w := range st.what {
		if strings.HasPrefix(path, t+".") {
			return w
		}
	}
	return "published snapshot"
}

// taintedExpr reports whether e evaluates to a value aliasing tainted
// storage, tracking through parens, slicing, indexing, address-of, and
// conversions.
func (st *snapState) taintedExpr(e ast.Expr) (string, bool) {
	if e == nil {
		return "", false
	}
	if path := exprPath(st.pass.TypesInfo, e); path != "" && st.extendsTaint(path) {
		return path, true
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return st.taintedExpr(e.X)
	case *ast.IndexExpr:
		return st.taintedExpr(e.X)
	case *ast.StarExpr:
		return st.taintedExpr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return st.taintedExpr(e.X)
		}
	case *ast.CallExpr:
		if _, ok := seedCallResult(st.pass, e); ok {
			return "", true
		}
		if tv, ok := st.pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return st.taintedExpr(e.Args[0])
		}
	}
	return "", false
}

func (st *snapState) reportStore(lhs ast.Expr, pos token.Pos) {
	path := exprPath(st.pass.TypesInfo, lhs)
	st.pass.Reportf(pos, "store through %s (%s): published snapshots and cached views are shared and immutable; clone before mutating (core.CloneCandidates for candidate views)",
		st.taintName(path), renderLHS(lhs))
}

// handleAssign reports stores into tainted storage and propagates aliases
// created by plain rebinding.
func (st *snapState) handleAssign(n *ast.AssignStmt) {
	info := st.pass.TypesInfo
	// Stores: any LHS that is a field/element of a tainted value. A bare
	// identifier rebinding is legal (it changes what the name refers to,
	// not the shared storage).
	for _, lhs := range n.Lhs {
		if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			continue
		}
		if path := exprPath(info, lhs); st.extendsTaint(path) {
			st.reportStore(lhs, lhs.Pos())
		}
	}
	// Alias propagation: ident := tainted-expr (also through tuple
	// assignment from a seed call: topo := c.Snapshot(); e, miss := cache.Lookup(epoch, k, need)).
	if len(n.Rhs) == 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			if what, ok := seedCallResult(st.pass, call); ok {
				// Only the first result is the shared value, and only a bare
				// identifier becomes an alias: entries[i] = miss.Store(...)
				// replaces an element of a local pointer slice, it does not
				// turn that slice into shared storage.
				if id, ok := ast.Unparen(n.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
					st.mark(exprPath(info, id), what)
				}
				return
			}
		}
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		if _, tainted := st.taintedExpr(n.Rhs[i]); tainted {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
				st.mark(exprPath(info, id), st.rhsName(n.Rhs[i]))
			}
		} else if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			// Rebinding to a fresh value clears the name's taint.
			if path := exprPath(info, id); path != "" {
				delete(st.tainted, path)
				delete(st.what, path)
			}
		}
	}
}

func (st *snapState) rhsName(e ast.Expr) string {
	if path := exprPath(st.pass.TypesInfo, e); path != "" {
		return st.taintName(path)
	}
	return "published snapshot"
}

// handleRange propagates taint into reference-typed range values: ranging
// over a tainted slice of pointers (or slices/maps) yields aliases, while
// struct/scalar elements are copies and safe to mutate.
func (st *snapState) handleRange(n *ast.RangeStmt) {
	if n.Value == nil {
		return
	}
	id, ok := n.Value.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if _, tainted := st.taintedExpr(n.X); !tainted {
		return
	}
	obj := st.pass.TypesInfo.Defs[id]
	if obj == nil {
		return
	}
	switch types.Unalias(obj.Type()).Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		st.mark(objPath(obj), st.rhsName(n.X))
	}
}

// handleCall reports calls that mutate tainted storage: append (which may
// write into the shared backing array beyond the view's length), copy with
// a tainted destination, and in-place sorts.
func (st *snapState) handleCall(call *ast.CallExpr) {
	info := st.pass.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				if len(call.Args) > 0 {
					if path, tainted := st.taintedExpr(call.Args[0]); tainted {
						st.pass.Reportf(call.Pos(), "append to %s: the view is a prefix reslice of a shared backing array, so append may overwrite cached elements past the view; clone first (core.CloneCandidates)",
							st.taintName(path))
					}
				}
			case "copy":
				if len(call.Args) > 0 {
					if path, tainted := st.taintedExpr(call.Args[0]); tainted {
						st.pass.Reportf(call.Pos(), "copy into %s: published snapshots and cached views are shared and immutable; copy into a fresh slice instead",
							st.taintName(path))
					}
				}
			}
			return
		}
	}
	fn := st.pass.funcObj(call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sort" && len(call.Args) > 0 {
		switch fn.Name() {
		case "Slice", "SliceStable", "Sort", "Stable", "Ints", "Strings", "Float64s":
			if path, tainted := st.taintedExpr(call.Args[0]); tainted {
				st.pass.Reportf(call.Pos(), "in-place sort of %s: sorting mutates the shared storage concurrent readers are iterating; sort a clone (core.CloneCandidates)",
					st.taintName(path))
			}
		}
	}
}
