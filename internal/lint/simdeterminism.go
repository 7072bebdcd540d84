package lint

import (
	"go/ast"
	"go/types"
)

// SimSidePackages is the structural allowlist at the heart of the
// determinism contract: the packages whose outputs must be a pure function
// of (topology, workload, seed), because the paper's figures are only
// comparable across schedulers when every run is bit-reproducible. Wall
// clocks, the global math/rand stream, and map-iteration-ordered output are
// forbidden here. Everything else — the live daemons under internal/live,
// the cmd mains, obs, and the shared core read path — is exempt by
// omission, not by suppression comments. The collector joined the sim side once it
// became fully clock-injected (its clock is a func() time.Duration bound
// by the caller): its snapshots must stay byte-identical per
// seed, so it carries the same obligations as the simulator proper.
//
// The map is mutable so the analysistest fixtures can register themselves;
// production membership is fixed at compile time by this literal.
var SimSidePackages = map[string]bool{
	"intsched/internal/simtime":    true,
	"intsched/internal/netsim":     true,
	"intsched/internal/experiment": true,
	"intsched/internal/transport":  true,
	"intsched/internal/traffic":    true,
	"intsched/internal/workload":   true,
	"intsched/internal/edge":       true,
	"intsched/internal/stats":      true,
	"intsched/internal/fault":      true,
	"intsched/internal/collector":  true,
	// adapt's cadence decisions feed the per-cell adaptive digest that CI
	// diffs across -parallel settings: a wall-clock age or global-rand
	// jitter inside the controller would break that byte-identity.
	"intsched/internal/adapt": true,
}

// forbiddenTimeFuncs are package time functions that read or wait on the
// wall clock. time.Duration arithmetic and constants remain fine — the
// simulator's virtual clock is expressed in time.Duration.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the math/rand package-level functions that do not
// touch the global (process-seeded) Source. Everything else package-level
// (Intn, Float64, Perm, Shuffle, Seed, ...) draws from shared state whose
// stream depends on what every other goroutine consumed — poison for
// seed-determinism. Methods on an explicit *rand.Rand are always fine;
// simtime.Rand wraps one per seed.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// outputMethodNames are methods that emit bytes in call order: calling one
// inside a map-range loop makes the output depend on Go's randomized map
// iteration order.
var outputMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true,
}

// SimDeterminismAnalyzer enforces seed-determinism in the sim-side
// packages.
var SimDeterminismAnalyzer = &Analyzer{
	Name: "simdeterminism",
	Doc: `forbid wall-clock reads, the global math/rand stream, and map-iteration-ordered output in simulation packages

The simulation must be bit-reproducible per seed. In the packages listed in
SimSidePackages this analyzer reports:

  - calls to time.Now, time.Sleep, time.Since, time.Until, time.After,
    time.AfterFunc, time.Tick, time.NewTimer, time.NewTicker (virtual time
    comes from simtime.Engine);
  - calls to package-level math/rand functions other than New/NewSource/
    NewZipf (draws must come from an explicitly seeded *rand.Rand, i.e.
    simtime.Rand);
  - print/encode/write calls inside a range over a map (collect the keys,
    sort them, then emit).`,
	Run: runSimDeterminism,
}

func runSimDeterminism(pass *Pass) (any, error) {
	if !SimSidePackages[pass.Pkg.Path()] {
		return nil, nil
	}
	for _, file := range pass.nonTestFiles() {
		mapRangeDepth := 0
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				ast.Walk(visitorFunc(walk), n.X)
				if isMapType(pass.TypesInfo.TypeOf(n.X)) {
					mapRangeDepth++
					for _, stmt := range n.Body.List {
						ast.Walk(visitorFunc(walk), stmt)
					}
					mapRangeDepth--
				} else {
					ast.Walk(visitorFunc(walk), n.Body)
				}
				return false
			case *ast.CallExpr:
				checkDeterminismCall(pass, n, mapRangeDepth > 0)
			}
			return true
		}
		ast.Walk(visitorFunc(walk), file)
	}
	return nil, nil
}

// visitorFunc adapts a func to ast.Visitor.
type visitorFunc func(ast.Node) bool

func (f visitorFunc) Visit(n ast.Node) ast.Visitor {
	if n == nil || !f(n) {
		return nil
	}
	return f
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := types.Unalias(t).Underlying().(*types.Map)
	return ok
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr, inMapRange bool) {
	fn := pass.funcObj(call)
	if fn != nil && fn.Pkg() != nil {
		sig, _ := fn.Type().(*types.Signature)
		pkgLevel := sig != nil && sig.Recv() == nil
		switch fn.Pkg().Path() {
		case "time":
			if pkgLevel && forbiddenTimeFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "call to time.%s in sim-side package %s: simulation code must use simtime.Engine virtual time", fn.Name(), pass.Pkg.Path())
			}
		case "math/rand", "math/rand/v2":
			if pkgLevel && !allowedRandFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "call to global %s.%s in sim-side package %s: draw from an explicitly seeded *rand.Rand (simtime.Rand) so runs are seed-deterministic", fn.Pkg().Path(), fn.Name(), pass.Pkg.Path())
			}
		}
	}
	if !inMapRange {
		return
	}
	// Direct output inside a map-range body.
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		name := fn.Name()
		if len(name) > 0 && (name == "Print" || name == "Println" || name == "Printf" ||
			name == "Fprint" || name == "Fprintln" || name == "Fprintf") {
			pass.Reportf(call.Pos(), "fmt.%s inside a range over a map: output order follows randomized map iteration; collect the keys, sort, then print", name)
		}
		return
	}
	if fn != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil && outputMethodNames[fn.Name()] {
			pass.Reportf(call.Pos(), "%s.%s inside a range over a map: emitted order follows randomized map iteration; collect the keys, sort, then emit", recvTypeString(sig), fn.Name())
		}
	}
}

func recvTypeString(sig *types.Signature) string {
	if named := namedOf(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return sig.Recv().Type().String()
}
