package lint

import (
	"go/ast"
	"go/types"
)

// scratchAliasExemptPackages are skipped by scratchalias: telemetry
// implements the codec, and collector implements PathInto and SlotsInto
// (whose wrappers legitimately return the re-homed scratch), so returning
// and growing their own scratch is their job, not a leak.
var scratchAliasExemptPackages = map[string]bool{
	"intsched/internal/telemetry": true,
	"intsched/internal/collector": true,
}

// ScratchAliasAnalyzer enforces the probe-codec scratch-reuse contract.
var ScratchAliasAnalyzer = &Analyzer{
	Name: "scratchalias",
	Doc: `forbid letting reusable scratch escape its reuse loop

telemetry.UnmarshalProbeInto decodes into a reusable payload whose Records
and Queues slices are recycled on the next decode, telemetry.AppendProbe
returns (a regrowth of) the caller's scratch buffer, and
collector.Topology.PathInto and collector.Topology.SlotsInto walk a path's
nodes or metric slots into (a regrowth of) caller-owned scratch that the
next walk overwrites. Everything reachable from the decode
target, the encoder's returned buffer, and the returned path aliases that
scratch: in the function performing the call (and same-package functions it
forwards the scratch to) those values must not be stored into receiver
fields, package variables, maps, or channels, must not be captured by
closures or goroutines, and must not be returned. Sanctioned idioms stay
legal: in-place mutation of the payload, growing the scratch back into the
place it came from (p.encScratch = encoded; s.path = p), handing the value
to a synchronous callee (which copies what it keeps, as the collector
does), and filling caller-provided transient state such as a frame being
marshalled before the next reuse.`,
	Run: runScratchAlias,
}

func runScratchAlias(pass *Pass) (any, error) {
	if scratchAliasExemptPackages[pass.Pkg.Path()] {
		return nil, nil
	}
	checker := newRetentionChecker(pass, retentionConfig{
		mode:                  taintAliasing,
		what:                  "probe-codec scratch",
		allowParamFieldStores: true,
	})
	for _, decl := range checker.decls {
		seeds := scratchSeeds(pass, decl.Body)
		if len(seeds) == 0 {
			continue
		}
		checker.analyzeFunc(decl.Type, decl.Recv, decl.Body, seeds)
	}
	checker.drain()
	return nil, nil
}

// scratchSeeds collects the taint roots of one function body: the decode
// targets of UnmarshalProbeInto calls, both the result and the dst buffer
// of AppendProbe calls, and both the returned walk and the scratch argument
// of Topology.PathInto and Topology.SlotsInto calls (seeding the input buffer
// legalizes the store-back idiom: a store into an already-tainted path is
// in-place scratch maintenance).
func scratchSeeds(pass *Pass, body *ast.BlockStmt) map[string]bool {
	seeds := make(map[string]bool)
	seed := func(e ast.Expr) {
		if path := exprPath(pass.TypesInfo, e); path != "" {
			seeds[path] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := pass.funcObj(n)
			switch {
			case isPkgFunc(fn, "intsched/internal/telemetry", "UnmarshalProbeInto"):
				if len(n.Args) > 0 {
					seed(n.Args[0])
				}
			case isPkgFunc(fn, "intsched/internal/telemetry", "AppendProbe"):
				if len(n.Args) > 0 {
					seed(n.Args[0])
				}
			case isWalkInto(fn):
				if len(n.Args) > 2 {
					seed(n.Args[2])
				}
			}
		case *ast.AssignStmt:
			// Bind the returned buffer/path to its destination.
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
					fn := pass.funcObj(call)
					if isPkgFunc(fn, "intsched/internal/telemetry", "AppendProbe") || isWalkInto(fn) {
						seed(n.Lhs[0])
					}
				}
			}
		}
		return true
	})
	if len(seeds) == 0 {
		return nil
	}
	return seeds
}

// isWalkInto reports whether fn is one of the tree walks that return their
// scratch argument re-homed.
func isWalkInto(fn *types.Func) bool {
	return isMethodOf(fn, "intsched/internal/collector", "Topology", "PathInto") ||
		isMethodOf(fn, "intsched/internal/collector", "Topology", "SlotsInto")
}
