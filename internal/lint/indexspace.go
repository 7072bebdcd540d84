package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// IndexSpaceAnalyzer is a units checker for the int32 index coordinate
// systems of the scheduler hot path.
var IndexSpaceAnalyzer = &Analyzer{
	Name: "indexspace",
	Doc: `forbid mixing node-index, host-index, edge-position, and metric-slot values

The read path runs in index space, where four distinct coordinate systems
share the Go type int32: merged node indices (positions
in Topology.Nodes), host indices (positions in the sorted host list, the
RankKey.From key space), CSR edge positions (into nbrFlat), and directed
metric slots (2e / 2e+1 into the slot arena). The compiler cannot tell
them apart; indexing an arena with a node index reads garbage silently.

This checker tags int32 values with their unit at defining sites — results
and parameters of the Topology index API (NodeIndex, HostNodeIndex,
DirSlot, SlotDelay, PathInto, Walker.SlotsInto, ...), known fields
(edgeStart, nbrFlat, the slot arena, hostIdx, RankKey.From), and
declarations
carrying a trailing "// unit:U", "// unit:U[I]", or "// unit:[I]"
annotation (element unit U, indexed-by unit I) — and propagates units
through assignment, conversion, +/- constant offsets, len, append, range,
and slicing. It reports indexing U-indexed storage with a value of a
different unit, cross-unit assignment (including struct literals and
annotated fields), cross-unit +/- arithmetic and comparisons, and passing
a value of one unit where the API expects another. Values with no known
unit are never reported, so code outside the index space is untouched.`,
	Run: runIndexSpace,
}

// The units.
type unit uint8

const (
	unitNone unit = iota
	unitNode      // position in Topology.Nodes (merged node index)
	unitHost      // position in the sorted host list
	unitEdge      // CSR edge position (into nbrFlat)
	unitSlot      // directed metric slot (2e / 2e+1 into Topology.slots)
)

func (u unit) String() string {
	switch u {
	case unitNode:
		return "node-index"
	case unitHost:
		return "host-index"
	case unitEdge:
		return "edge-position"
	case unitSlot:
		return "metric-slot"
	}
	return "unitless"
}

// unitSpec is the unit shape of a value: elem is the unit of the value
// itself (for containers: of its leaf elements), index is the unit that
// indexes it (for slices/arrays/maps).
type unitSpec struct{ elem, index unit }

func unitConflict(a, b unit) bool { return a != unitNone && b != unitNone && a != b }

const (
	collectorPkg = "intsched/internal/collector"
	corePkg      = "intsched/internal/core"
)

// unitFieldKey identifies a struct field carrying builtin units.
type unitFieldKey struct{ pkg, typ, field string }

// unitFields is the builtin field table: the index-space storage of the
// snapshot arena (collector/arena.go documents the coordinate systems). A
// field is keyed by the struct that declares it: Topology reaches the shared
// structure's fields by embedding.
var unitFields = map[unitFieldKey]unitSpec{
	{collectorPkg, "structure", "Nodes"}:     {index: unitNode},
	{collectorPkg, "structure", "nodeIndex"}: {elem: unitNode},
	{collectorPkg, "structure", "nbrIdx"}:    {index: unitNode, elem: unitNode},
	{collectorPkg, "structure", "hostFlag"}:  {index: unitNode},
	{collectorPkg, "structure", "hostList"}:  {index: unitHost},
	{collectorPkg, "structure", "hostIdx"}:   {index: unitHost, elem: unitNode},
	{collectorPkg, "structure", "edgeStart"}: {index: unitNode, elem: unitEdge},
	{collectorPkg, "structure", "nbrFlat"}:   {index: unitEdge, elem: unitNode},
	{collectorPkg, "Topology", "slots"}:      {index: unitSlot},
	{corePkg, "RankKey", "From"}:             {elem: unitHost},
}

// fieldOwner returns the named struct type that declares the selected
// field: the selection's receiver, or the embedded type the field is
// promoted from.
func fieldOwner(s *types.Selection) *types.Named {
	t := s.Recv()
	path := s.Index()
	for _, i := range path[:len(path)-1] {
		st, ok := namedOf(t).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		t = st.Field(i).Type()
	}
	return namedOf(t)
}

// unitMethodKey identifies a function or method carrying builtin units
// (typ is "" for package-level functions).
type unitMethodKey struct{ pkg, typ, name string }

type methodUnits struct{ params, results []unitSpec }

var unitMethods = map[unitMethodKey]methodUnits{
	{collectorPkg, "Topology", "NodeIndex"}:     {results: []unitSpec{{elem: unitNode}, {}}},
	{collectorPkg, "Topology", "NodeName"}:      {params: []unitSpec{{elem: unitNode}}},
	{collectorPkg, "Topology", "IsHostIdx"}:     {params: []unitSpec{{elem: unitNode}}},
	{collectorPkg, "Topology", "HostNodeIndex"}: {params: []unitSpec{{elem: unitHost}}, results: []unitSpec{{elem: unitNode}}},
	{collectorPkg, "Topology", "HostName"}:      {params: []unitSpec{{elem: unitHost}}},
	{collectorPkg, "Topology", "HostIndex"}:     {results: []unitSpec{{elem: unitHost}}},
	{collectorPkg, "structure", "DirSlot"}:      {params: []unitSpec{{elem: unitNode}, {elem: unitNode}}, results: []unitSpec{{elem: unitSlot}}},
	{collectorPkg, "structure", "csrEdge"}:      {params: []unitSpec{{elem: unitNode}, {elem: unitNode}}, results: []unitSpec{{elem: unitEdge}}},
	{collectorPkg, "structure", "edgeSlots"}:    {params: []unitSpec{{elem: unitNode}, {elem: unitNode}}},
	{collectorPkg, "Topology", "SlotDelay"}:     {params: []unitSpec{{elem: unitSlot}}},
	{collectorPkg, "Topology", "SlotRate"}:      {params: []unitSpec{{elem: unitSlot}}},
	{collectorPkg, "Topology", "SlotQueueMax"}:  {params: []unitSpec{{elem: unitSlot}}},
	{collectorPkg, "Topology", "PathInto"}: {
		params:  []unitSpec{{elem: unitNode}, {elem: unitNode}, {elem: unitNode}},
		results: []unitSpec{{elem: unitNode}, {}, {elem: unitNode}},
	},
	{collectorPkg, "Walker", "SlotsInto"}: {
		params:  []unitSpec{{elem: unitNode}, {elem: unitNode}, {elem: unitSlot}},
		results: []unitSpec{{elem: unitSlot}, {}, {elem: unitNode}},
	},
	{collectorPkg, "Topology", "treeForIdx"}:  {params: []unitSpec{{elem: unitNode}}},
	{collectorPkg, "Topology", "scratchTree"}: {params: []unitSpec{{elem: unitNode}}},
	{collectorPkg, "", "buildDestTree"}:       {params: []unitSpec{{}, {elem: unitNode}}},
	{collectorPkg, "destTree", "depth"}:       {params: []unitSpec{{elem: unitNode}, {elem: unitNode}}},
}

// unitAnnotation matches "unit:elem[index]" in a trailing comment: both
// parts optional ("unit:host", "unit:[slot]", "unit:node[edge]").
var unitAnnotation = regexp.MustCompile(`\bunit:([a-z]*)(?:\[([a-z]+)\])?`)

var unitNames = map[string]unit{
	"node": unitNode, "host": unitHost, "edge": unitEdge, "slot": unitSlot,
}

type unitLineKey struct {
	file string
	line int
}

func runIndexSpace(pass *Pass) (any, error) {
	c := &unitChecker{
		pass:     pass,
		ann:      make(map[unitLineKey]unitSpec),
		reported: make(map[token.Pos]bool),
	}
	for _, file := range pass.nonTestFiles() {
		for _, group := range file.Comments {
			for _, cm := range group.List {
				m := unitAnnotation.FindStringSubmatch(cm.Text)
				if m == nil {
					continue
				}
				spec := unitSpec{elem: unitNames[m[1]], index: unitNames[m[2]]}
				if spec == (unitSpec{}) {
					continue
				}
				pos := pass.Fset.Position(cm.Pos())
				c.ann[unitLineKey{pos.Filename, pos.Line}] = spec
			}
		}
	}
	for _, file := range pass.nonTestFiles() {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil, nil
}

type unitChecker struct {
	pass     *Pass
	ann      map[unitLineKey]unitSpec
	env      map[types.Object]unitSpec
	reported map[token.Pos]bool
}

func (c *unitChecker) reportf(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// declaredSpec returns the annotation-declared unit of an object: a
// "// unit:..." trailing comment on the line declaring it (field, var, or
// parameter in a multiline signature). Declared specs are pinned — flow
// does not override them.
func (c *unitChecker) declaredSpec(obj types.Object) (unitSpec, bool) {
	if obj == nil || !obj.Pos().IsValid() {
		return unitSpec{}, false
	}
	pos := c.pass.Fset.Position(obj.Pos())
	spec, ok := c.ann[unitLineKey{pos.Filename, pos.Line}]
	return spec, ok
}

// methodUnitsOf resolves a called function against the builtin unit table.
func (c *unitChecker) methodUnitsOf(fn *types.Func) (methodUnits, bool) {
	if fn == nil || fn.Pkg() == nil {
		return methodUnits{}, false
	}
	key := unitMethodKey{pkg: fn.Pkg().Path(), name: fn.Name()}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		named := namedOf(sig.Recv().Type())
		if named == nil {
			return methodUnits{}, false
		}
		key.typ = named.Obj().Name()
	}
	mu, ok := unitMethods[key]
	return mu, ok
}

func (c *unitChecker) checkFunc(fd *ast.FuncDecl) {
	c.env = make(map[types.Object]unitSpec)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			c.handleAssign(n)
		case *ast.ValueSpec:
			c.handleValueSpec(n)
		case *ast.RangeStmt:
			c.handleRange(n)
		case *ast.CallExpr:
			c.checkCallArgs(n)
		case *ast.CompositeLit:
			c.checkCompositeLit(n)
		case *ast.IndexExpr:
			c.specOf(n)
		case *ast.SliceExpr:
			c.specOf(n)
		case *ast.BinaryExpr:
			c.specOf(n)
		}
		return true
	})
}

// specOf computes the unit shape of an expression, firing index/arithmetic
// mixing checks as it descends (reports are position-deduplicated, so
// revisits are free).
func (c *unitChecker) specOf(e ast.Expr) unitSpec {
	info := c.pass.TypesInfo
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.specOf(e.X)
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if obj == nil {
			return unitSpec{}
		}
		if ds, ok := c.declaredSpec(obj); ok {
			return ds
		}
		return c.env[obj]
	case *ast.SelectorExpr:
		if s := info.Selections[e]; s != nil {
			if named := fieldOwner(s); named != nil && named.Obj().Pkg() != nil {
				key := unitFieldKey{named.Obj().Pkg().Path(), named.Obj().Name(), s.Obj().Name()}
				if fs, ok := unitFields[key]; ok {
					return fs
				}
			}
			if ds, ok := c.declaredSpec(s.Obj()); ok {
				return ds
			}
			return unitSpec{}
		}
		if ds, ok := c.declaredSpec(info.ObjectOf(e.Sel)); ok {
			return ds
		}
		return unitSpec{}
	case *ast.IndexExpr:
		cs := c.specOf(e.X)
		is := c.specOf(e.Index)
		if unitConflict(cs.index, is.elem) {
			c.reportf(e.Index.Pos(), "indexing %s-indexed storage with a %s value", cs.index, is.elem)
		}
		return unitSpec{elem: cs.elem}
	case *ast.SliceExpr:
		cs := c.specOf(e.X)
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b == nil {
				continue
			}
			bs := c.specOf(b)
			if unitConflict(cs.index, bs.elem) {
				c.reportf(b.Pos(), "slicing %s-indexed storage with a %s bound", cs.index, bs.elem)
			}
		}
		return cs
	case *ast.StarExpr:
		return c.specOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.ADD || e.Op == token.SUB {
			return c.specOf(e.X)
		}
		return unitSpec{}
	case *ast.CallExpr:
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			if len(e.Args) == 1 {
				return c.specOf(e.Args[0]) // conversion preserves the unit
			}
			return unitSpec{}
		}
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap":
					// The length of U-indexed storage is a U-space bound.
					if len(e.Args) == 1 {
						return unitSpec{elem: c.specOf(e.Args[0]).index}
					}
				case "append":
					if len(e.Args) > 0 {
						return c.specOf(e.Args[0])
					}
				}
				return unitSpec{}
			}
		}
		if mu, ok := c.methodUnitsOf(c.pass.funcObj(e)); ok && len(mu.results) > 0 {
			return mu.results[0]
		}
		return unitSpec{}
	case *ast.BinaryExpr:
		return c.binarySpec(e)
	}
	return unitSpec{}
}

// binarySpec handles +/- offset arithmetic (constants preserve the unit)
// and flags cross-unit arithmetic and comparisons. Multiplicative ops
// legitimately change unit (slot = 2e+1), so they yield no unit and are
// never flagged.
func (c *unitChecker) binarySpec(e *ast.BinaryExpr) unitSpec {
	info := c.pass.TypesInfo
	isConst := func(x ast.Expr) bool {
		tv, ok := info.Types[x]
		return ok && tv.Value != nil
	}
	switch e.Op {
	case token.ADD, token.SUB:
		switch {
		case isConst(e.X) && isConst(e.Y):
			return unitSpec{}
		case isConst(e.Y):
			return c.specOf(e.X) // i+1, i-1: an offset in the same space
		case isConst(e.X):
			if e.Op == token.ADD {
				return c.specOf(e.Y)
			}
			return unitSpec{} // n-i reverses the axis
		}
		xs, ys := c.specOf(e.X), c.specOf(e.Y)
		if unitConflict(xs.elem, ys.elem) {
			c.reportf(e.OpPos, "mixing %s and %s values in arithmetic", xs.elem, ys.elem)
		}
		// A difference/sum of two same-unit indices is a distance, not an
		// index in either space.
		return unitSpec{}
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		if isConst(e.X) || isConst(e.Y) {
			return unitSpec{}
		}
		xs, ys := c.specOf(e.X), c.specOf(e.Y)
		if unitConflict(xs.elem, ys.elem) {
			c.reportf(e.OpPos, "comparing a %s value with a %s value", xs.elem, ys.elem)
		}
	}
	return unitSpec{}
}

// bindIdent records (or checks) the unit of an identifier being assigned.
func (c *unitChecker) bindIdent(id *ast.Ident, rs unitSpec) {
	if id.Name == "_" {
		return
	}
	obj := c.pass.TypesInfo.ObjectOf(id)
	if obj == nil {
		return
	}
	if ds, ok := c.declaredSpec(obj); ok {
		if unitConflict(ds.elem, rs.elem) {
			c.reportf(id.Pos(), "assigning a %s value to %s, declared %s", rs.elem, id.Name, ds.elem)
		}
		return // declared specs are pinned
	}
	c.env[obj] = rs
}

func (c *unitChecker) handleAssign(n *ast.AssignStmt) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// Tuple assignment from a call: bind per-result units when the
		// callee is in the builtin table.
		var results []unitSpec
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			if mu, ok := c.methodUnitsOf(c.pass.funcObj(call)); ok {
				results = mu.results
			}
		}
		for i, lhs := range n.Lhs {
			var rs unitSpec
			if i < len(results) {
				rs = results[i]
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				c.bindIdent(id, rs)
			}
		}
		return
	}
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) {
			break
		}
		rs := c.specOf(n.Rhs[i])
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			c.bindIdent(id, rs)
			continue
		}
		ls := c.specOf(lhs)
		if unitConflict(ls.elem, rs.elem) {
			c.reportf(lhs.Pos(), "assigning a %s value into %s storage (%s)", rs.elem, ls.elem, renderLHS(lhs))
		}
	}
}

func (c *unitChecker) handleValueSpec(n *ast.ValueSpec) {
	for i, name := range n.Names {
		var rs unitSpec
		if i < len(n.Values) {
			rs = c.specOf(n.Values[i])
		}
		c.bindIdent(name, rs)
	}
}

func (c *unitChecker) handleRange(n *ast.RangeStmt) {
	cs := c.specOf(n.X)
	if cs == (unitSpec{}) {
		return
	}
	if id, ok := n.Key.(*ast.Ident); ok && n.Tok == token.DEFINE {
		c.bindIdent(id, unitSpec{elem: cs.index})
	}
	if id, ok := n.Value.(*ast.Ident); ok && n.Tok == token.DEFINE {
		c.bindIdent(id, unitSpec{elem: cs.elem})
	}
}

// checkCallArgs checks call arguments against builtin parameter units and
// annotated parameters of same-package functions.
func (c *unitChecker) checkCallArgs(call *ast.CallExpr) {
	fn := c.pass.funcObj(call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	mu, hasTable := c.methodUnitsOf(fn)
	for i, arg := range call.Args {
		idx := i
		if sig.Variadic() && idx >= sig.Params().Len() {
			idx = sig.Params().Len() - 1
		}
		if idx < 0 || idx >= sig.Params().Len() {
			continue
		}
		var ps unitSpec
		if hasTable && idx < len(mu.params) {
			ps = mu.params[idx]
		} else if ds, ok := c.declaredSpec(sig.Params().At(idx)); ok {
			ps = ds
		} else {
			continue
		}
		as := c.specOf(arg)
		if unitConflict(ps.elem, as.elem) {
			c.reportf(arg.Pos(), "passing a %s value where %s expects a %s", as.elem, fn.Name(), ps.elem)
		}
	}
}

// checkCompositeLit checks keyed struct literal fields against builtin and
// annotated field units (core.RankKey{From: ...} must get a host index).
func (c *unitChecker) checkCompositeLit(lit *ast.CompositeLit) {
	info := c.pass.TypesInfo
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	named := namedOf(tv.Type)
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		fs, ok := unitFields[unitFieldKey{named.Obj().Pkg().Path(), named.Obj().Name(), key.Name}]
		if !ok {
			if ds, okd := c.declaredSpec(info.ObjectOf(key)); okd {
				fs = ds
			} else {
				continue
			}
		}
		vs := c.specOf(kv.Value)
		if unitConflict(fs.elem, vs.elem) {
			c.reportf(kv.Value.Pos(), "assigning a %s value to field %s, declared %s", vs.elem, key.Name, fs.elem)
		}
	}
}
