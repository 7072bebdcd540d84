package lint_test

import (
	"testing"

	"intsched/internal/lint"
	"intsched/internal/lint/linttest"
)

// The fixture packages live under testdata (invisible to go build) and are
// loaded by the source loader with synthetic fixture/... import paths, so
// they can import the real intsched packages whose contracts they violate.

func TestSimDeterminism(t *testing.T) {
	// The fixture registers itself as sim-side; production membership is
	// the literal in SimSidePackages.
	lint.SimSidePackages["fixture/simdet"] = true
	linttest.Run(t, "internal/lint/testdata/src/simdet", "fixture/simdet", lint.SimDeterminismAnalyzer)
}

// TestSimDeterminismFault covers the fault-injection subsystem's hazards:
// wall-clock event scheduling, global-rand probe-loss draws, and map-ordered
// fault reports would all break byte-identical fault replays.
func TestSimDeterminismFault(t *testing.T) {
	lint.SimSidePackages["fixture/faultdet"] = true
	linttest.Run(t, "internal/lint/testdata/src/faultdet", "fixture/faultdet", lint.SimDeterminismAnalyzer)
}

// TestSimDeterminismAdapt covers the adaptive probing controller: cadence
// decisions stamped from the wall clock or jittered through the global rand
// stream would break the byte-identity of the adaptive decision digest that
// CI diffs across -parallel settings.
func TestSimDeterminismAdapt(t *testing.T) {
	lint.SimSidePackages["fixture/adaptdet"] = true
	linttest.Run(t, "internal/lint/testdata/src/adaptdet", "fixture/adaptdet", lint.SimDeterminismAnalyzer)
}

// TestTransientPacket includes the PR 3 regression: a handler retaining
// delivered packets in a ring buffer while netsim recycles them.
func TestTransientPacket(t *testing.T) {
	linttest.Run(t, "internal/lint/testdata/src/transient", "fixture/transient", lint.TransientPacketAnalyzer)
}

func TestScratchAlias(t *testing.T) {
	linttest.Run(t, "internal/lint/testdata/src/scratch", "fixture/scratch", lint.ScratchAliasAnalyzer)
}

// TestSnapshotImmutable covers stores through published Topology snapshots
// and cached RankEntry candidate views, against the read/reslice/clone
// idioms the service actually uses.
func TestSnapshotImmutable(t *testing.T) {
	linttest.Run(t, "internal/lint/testdata/src/snapimm", "fixture/snapimm", lint.SnapshotImmutableAnalyzer)
}

// TestModuleIsClean runs the full suite over the repository itself: the
// production tree must stay free of violations.
func TestModuleIsClean(t *testing.T) {
	linttest.RunModule(t, lint.Analyzers())
}
