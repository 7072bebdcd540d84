package lint_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"intsched/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files")

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// TestJSONGolden locks down the machine-readable output shape: the
// snapshotimmutable fixture's findings, rendered exactly as intlint -json renders
// them (module-root-relative paths, related positions, stable order).
// Regenerate with: go test ./internal/lint/ -run TestJSONGolden -update
func TestJSONGolden(t *testing.T) {
	root := moduleRoot(t)
	l, err := lint.NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	lp, err := l.LoadDir(filepath.Join(root, "internal/lint/testdata/src/snapimm"), "fixture/snapimm")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	findings, err := lint.RunAnalyzers(l.Fset, lp.Files, lp.Pkg, lp.Info, []*lint.Analyzer{lint.SnapshotImmutableAnalyzer})
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	diags := lint.FindingsToJSON(l.Fset, root, findings)
	lint.SortDiagnostics(diags)
	rep := lint.JSONReport{Module: "fixture", Diagnostics: diags}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join(root, "internal/lint/testdata/snapimm.json.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON output diverged from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func cloneDiags(diags []lint.JSONDiagnostic) []lint.JSONDiagnostic {
	out := make([]lint.JSONDiagnostic, len(diags))
	copy(out, diags)
	return out
}

// TestBaselineRoundTrip exercises the ratchet: recording findings
// suppresses exactly those findings, a new finding stays fresh, and fixing
// a recorded finding re-fires as a stale entry until the baseline shrinks.
func TestBaselineRoundTrip(t *testing.T) {
	diags := []lint.JSONDiagnostic{
		{Analyzer: "snapshotimmutable", File: "internal/core/engine.go", Line: 40, Col: 3,
			Message: "store through published snapshot topo"},
		{Analyzer: "snapshotimmutable", File: "internal/core/engine.go", Line: 88, Col: 3,
			Message: "store through published snapshot topo"},
		{Analyzer: "indexspace", File: "internal/core/rankidx.go", Line: 120, Col: 9,
			Message: "indexing metric-slot-indexed storage with a node-index value"},
	}

	// Record, write, reload: the same findings are fully suppressed.
	path := filepath.Join(t.TempDir(), "lint.baseline.json")
	if err := lint.WriteBaseline(path, lint.BaselineFromDiagnostics(diags)); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	bl, err := lint.LoadBaseline(path)
	if err != nil {
		t.Fatalf("load baseline: %v", err)
	}
	same := cloneDiags(diags)
	fresh, stale := bl.Apply(same)
	if fresh != 0 || len(stale) != 0 {
		t.Fatalf("identical findings: fresh=%d stale=%d, want 0/0", fresh, len(stale))
	}
	for i, d := range same {
		if !d.Baselined {
			t.Errorf("diagnostic %d not marked baselined", i)
		}
	}

	// A new finding is fresh — the baseline only covers what it recorded.
	// Same file+analyzer, different message: the key includes the message.
	withNew := append(cloneDiags(diags), lint.JSONDiagnostic{
		Analyzer: "snapshotimmutable", File: "internal/core/engine.go", Line: 91, Col: 3,
		Message: "in-place sort of cached ranking entry"})
	fresh, stale = bl.Apply(withNew)
	if fresh != 1 || len(stale) != 0 {
		t.Fatalf("new finding: fresh=%d stale=%d, want 1/0", fresh, len(stale))
	}
	if withNew[len(withNew)-1].Baselined {
		t.Error("new finding wrongly marked baselined")
	}

	// Line moves don't invalidate the match: the key is (analyzer, file,
	// message) with a count, not positions.
	moved := cloneDiags(diags)
	moved[0].Line += 7
	if fresh, stale = bl.Apply(moved); fresh != 0 || len(stale) != 0 {
		t.Fatalf("moved finding: fresh=%d stale=%d, want 0/0", fresh, len(stale))
	}

	// Fixing a finding makes its entry stale: the run fails until the
	// baseline is regenerated without it.
	fixedOne := cloneDiags(diags[:2])
	fresh, stale = bl.Apply(fixedOne)
	if fresh != 0 || len(stale) != 1 {
		t.Fatalf("fixed finding: fresh=%d stale=%d, want 0/1", fresh, len(stale))
	}
	if stale[0].Analyzer != "indexspace" {
		t.Errorf("stale entry analyzer = %q, want indexspace", stale[0].Analyzer)
	}
	// One of a doubled finding fixed: the shared entry's leftover count
	// surfaces as stale too.
	fresh, stale = bl.Apply(cloneDiags(diags[1:]))
	if fresh != 0 || len(stale) != 1 {
		t.Fatalf("half-fixed doubled finding: fresh=%d stale=%d, want 0/1", fresh, len(stale))
	}
	if stale[0].Count != 1 {
		t.Errorf("stale leftover count = %d, want 1", stale[0].Count)
	}

	// Regenerating the baseline from the reduced findings clears the ratchet.
	bl2 := lint.BaselineFromDiagnostics(fixedOne)
	if fresh, stale = bl2.Apply(cloneDiags(fixedOne)); fresh != 0 || len(stale) != 0 {
		t.Fatalf("regenerated baseline: fresh=%d stale=%d, want 0/0", fresh, len(stale))
	}
}
