package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

const obsPkg = "intsched/internal/obs"

// obsUnitSuffixes are the unit suffixes the series-name scheme accepts for
// measured quantities. Histograms must use one (their _bucket/_sum/_count
// expansions hang off the base name); gauges may be dimensionless counts
// (intsched_probe_streams) or versions (intsched_collector_epoch).
var obsUnitSuffixes = []string{"_seconds", "_bytes", "_ratio", "_packets"}

// ObsNamingAnalyzer enforces the metric series-name scheme of the series
// the live daemon exports at /metrics.
var ObsNamingAnalyzer = &Analyzer{
	Name: "obsnaming",
	Doc: `require obs metric names to follow the shared snake_case, unit-suffixed scheme

Every series registered with internal/obs outside the obs package itself
must be named intsched_<snake_case>: lowercase letters, digits, and single
underscores only. Counters (Counter/CounterFunc) end in _total; histograms
end in a unit suffix (_seconds, _bytes, _ratio, _packets); gauges must not
end in _total; no name may end in _bucket, _sum, or _count (reserved for
histogram expansion). Names must be statically checkable: string literals
or named constants, or — for registration tables — the range variable of a
loop over a slice literal whose name fields are constants.`,
	Run: runObsNaming,
}

func runObsNaming(pass *Pass) (any, error) {
	if pass.Pkg.Path() == obsPkg {
		return nil, nil
	}
	for _, file := range pass.nonTestFiles() {
		var stack []ast.Node
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			if lit, ok := n.(*ast.CompositeLit); ok {
				if named := namedOf(pass.TypesInfo.TypeOf(lit)); named != nil &&
					named.Obj().Name() == "Opts" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == obsPkg {
					checkOptsLit(pass, lit, stack)
				}
			}
			return true
		}
		// ast.Inspect with a push/pop stack so checkOptsLit can see the
		// enclosing call (for the metric kind) and function (for the
		// registration-table trace).
		ast.Inspect(file, visit)
	}
	return nil, nil
}

// checkOptsLit validates the Name field of one obs.Opts literal.
func checkOptsLit(pass *Pass, lit *ast.CompositeLit, stack []ast.Node) {
	var nameExpr ast.Expr
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
			nameExpr = kv.Value
		}
	}
	if nameExpr == nil {
		pass.Reportf(lit.Pos(), "obs.Opts without a Name field: every series needs a statically checkable name")
		return
	}
	kind := metricKindFromContext(pass, lit, stack)
	if tv, ok := pass.TypesInfo.Types[nameExpr]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		checkMetricName(pass, nameExpr.Pos(), constant.StringVal(tv.Value), kind)
		return
	}
	// Registration-table idiom: Name is <rangeVar>.<field> where rangeVar
	// ranges over a slice literal with constant name fields.
	if names, ok := traceRangeTable(pass, nameExpr, stack); ok {
		for _, nm := range names {
			checkMetricName(pass, nm.pos, nm.value, kind)
		}
		return
	}
	pass.Reportf(nameExpr.Pos(), "metric name is not statically checkable: use a string literal, a named constant, or a range over a slice literal of constant names so the series scheme can be enforced")
}

// metricKind is the registration method the Opts literal flows into.
type metricKind int

const (
	kindUnknown metricKind = iota
	kindCounter
	kindGauge
	kindHistogram
)

// metricKindFromContext inspects the enclosing call: reg.Counter(Opts{...})
// makes the literal's kind a counter, and so on. An Opts literal stored in
// a variable first has unknown kind; only the base rules apply.
func metricKindFromContext(pass *Pass, lit *ast.CompositeLit, stack []ast.Node) metricKind {
	for i := len(stack) - 1; i >= 0; i-- {
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			continue
		}
		arg := false
		for _, a := range call.Args {
			if containsNode(a, lit) {
				arg = true
				break
			}
		}
		if !arg {
			continue
		}
		fn := pass.funcObj(call)
		switch {
		case isMethodOf(fn, obsPkg, "Registry", "Counter"), isMethodOf(fn, obsPkg, "Registry", "CounterFunc"):
			return kindCounter
		case isMethodOf(fn, obsPkg, "Registry", "Gauge"), isMethodOf(fn, obsPkg, "Registry", "GaugeFunc"):
			return kindGauge
		case isMethodOf(fn, obsPkg, "Registry", "Histogram"):
			return kindHistogram
		}
		return kindUnknown
	}
	return kindUnknown
}

// containsNode reports whether outer's subtree contains n.
func containsNode(outer ast.Node, n ast.Node) bool {
	if outer == nil {
		return false
	}
	found := false
	ast.Inspect(outer, func(x ast.Node) bool {
		if x == n {
			found = true
		}
		return !found
	})
	return found
}

// constName is one statically resolved name with its source position.
type constName struct {
	pos   token.Pos
	value string
}

// traceRangeTable resolves a non-constant Name expression of the form
// c.name (or c), where c is the value variable of a range over a slice/
// array composite literal in the same function, to the constant name field
// of every element.
func traceRangeTable(pass *Pass, nameExpr ast.Expr, stack []ast.Node) ([]constName, bool) {
	var fieldName string
	var rootObj types.Object
	switch e := ast.Unparen(nameExpr).(type) {
	case *ast.SelectorExpr:
		root, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok {
			return nil, false
		}
		fieldName = e.Sel.Name
		rootObj = pass.TypesInfo.ObjectOf(root)
	case *ast.Ident:
		rootObj = pass.TypesInfo.ObjectOf(e)
	default:
		return nil, false
	}
	if rootObj == nil {
		return nil, false
	}
	// Find the enclosing function, then the range statement binding rootObj.
	var fnBody *ast.BlockStmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			fnBody = f.Body
		case *ast.FuncLit:
			fnBody = f.Body
		}
		if fnBody != nil {
			break
		}
	}
	if fnBody == nil {
		return nil, false
	}
	var names []constName
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || found {
			return !found
		}
		val, ok := rng.Value.(*ast.Ident)
		if !ok || pass.TypesInfo.ObjectOf(val) != rootObj {
			return true
		}
		tableLit, ok := ast.Unparen(rng.X).(*ast.CompositeLit)
		if !ok {
			return true
		}
		for _, elt := range tableLit.Elts {
			elemLit, ok := elt.(*ast.CompositeLit)
			if !ok {
				return true
			}
			nameField := fieldInCompositeLit(pass, elemLit, fieldName)
			if nameField == nil {
				return true
			}
			tv, ok := pass.TypesInfo.Types[nameField]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			names = append(names, constName{pos: nameField.Pos(), value: constant.StringVal(tv.Value)})
		}
		found = true
		return false
	})
	return names, found
}

// fieldInCompositeLit returns the value of the named field in a struct
// composite literal, resolving both keyed and positional forms. For the
// positional form the field order comes from the struct type. When
// fieldName is empty the element itself is returned (table of plain
// strings).
func fieldInCompositeLit(pass *Pass, lit *ast.CompositeLit, fieldName string) ast.Expr {
	if fieldName == "" {
		return lit
	}
	structType, ok := types.Unalias(pass.TypesInfo.TypeOf(lit)).Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == fieldName {
				return kv.Value
			}
			continue
		}
		if i < structType.NumFields() && structType.Field(i).Name() == fieldName {
			return elt
		}
	}
	return nil
}

// checkMetricName applies the naming scheme to one resolved name.
func checkMetricName(pass *Pass, pos token.Pos, name string, kind metricKind) {
	if !validSchemeName(name) {
		pass.Reportf(pos, "metric name %q does not follow the series scheme: names are intsched_<snake_case> (lowercase letters, digits, single underscores)", name)
		return
	}
	for _, reserved := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, reserved) {
			pass.Reportf(pos, "metric name %q ends in %s, which is reserved for histogram exposition; pick a different base name", name, reserved)
			return
		}
	}
	switch kind {
	case kindCounter:
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "counter %q must end in _total (the scheme keeps daemon /metrics and sim-side series joinable)", name)
		}
	case kindHistogram:
		if !hasUnitSuffix(name) {
			pass.Reportf(pos, "histogram %q must end in a unit suffix (%s)", name, strings.Join(obsUnitSuffixes, ", "))
		}
	case kindGauge:
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(pos, "gauge %q must not end in _total (that suffix marks counters)", name)
		}
	}
}

func hasUnitSuffix(name string) bool {
	for _, s := range obsUnitSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// validSchemeName checks intsched_<snake_case>: ^intsched(_[a-z0-9]+)+$.
func validSchemeName(name string) bool {
	rest, ok := strings.CutPrefix(name, "intsched_")
	if !ok || rest == "" {
		return false
	}
	for _, part := range strings.Split(rest, "_") {
		if part == "" {
			return false // leading/trailing/double underscore
		}
		for _, r := range part {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') {
				return false
			}
		}
	}
	return true
}
