package experiment

import (
	"testing"

	"intsched/internal/core"
	"intsched/internal/workload"
)

func adaptiveTestConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Seed:      3,
		TaskCount: 60,
		Budgets:   []float64{0.5},
		Smoke:     true,
	}
}

// TestAdaptiveSmoke: the sweep runs end to end with its claims (bytes below
// static-full, mis and detection no worse than the equal-budget static cell,
// controller engaged) enforced inside Adaptive; the test checks the cell
// shape on top.
func TestAdaptiveSmoke(t *testing.T) {
	res, err := serial.Adaptive(adaptiveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want static-full + static/adaptive pair", len(res.Cells))
	}
	full, st, ad := res.Cells[0], res.Cells[1], res.Cells[2]
	if full.Adaptive || st.Adaptive || !ad.Adaptive {
		t.Fatalf("cell roles wrong: %+v", res.Cells)
	}
	if full.Directives != 0 || st.Directives != 0 {
		t.Fatalf("static cells recorded controller activity: full=%d static=%d",
			full.Directives, st.Directives)
	}
	if ad.Directives == 0 || ad.Backoffs+ad.BudgetClamps == 0 {
		t.Fatalf("adaptive cell never slowed a stream: %+v", ad)
	}
	if ad.Decisions != full.Decisions {
		t.Fatalf("adaptive made %d decisions, static-full %d (same workload)", ad.Decisions, full.Decisions)
	}
	if ad.ProbesSent >= full.ProbesSent {
		t.Fatalf("adaptive sent %d probes, static-full %d", ad.ProbesSent, full.ProbesSent)
	}
	if full.Evictions == 0 || ad.Evictions == 0 {
		t.Fatal("fault schedule drove no evictions; the detection claim tested nothing")
	}
	if full.Digest == ad.Digest || st.Digest == ad.Digest {
		t.Fatalf("adaptive digest matched a static cell: %+v", res.Cells)
	}
}

// TestBackedOffStreamStillDetectsFailure: the safety property behind the
// whole control loop. Streams the controller has slowed to the maximum
// cadence sit on an edge that then fails; adjacency aging plus the eviction
// hook must still evict it, and back-off may cost at most one max-cadence
// probe gap over the static detection bound — the controller tightens on
// silence rather than masking it.
func TestBackedOffStreamStillDetectsFailure(t *testing.T) {
	const interval = FaultProbeInterval
	base := faultReplay(3, 60, faultInterarrival)
	static, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := base
	adaptive.Adaptive = true // no budget: back-off comes from stability alone
	ad, err := Run(adaptive)
	if err != nil {
		t.Fatal(err)
	}

	// The controller must actually have backed streams off before the first
	// fault (warmup 2 s + two 500 ms evaluations beat the 15%-of-span
	// LinkDown), and must have tightened on the silence the fault created.
	if ad.CadenceBackoffs == 0 {
		t.Fatalf("no back-offs recorded; the test never slowed a stream: %+v", ad.FaultStats)
	}
	if ad.SilenceTightens == 0 {
		t.Fatal("the fault silenced streams but the controller never tightened on it")
	}
	if len(static.EvictionSilences) == 0 || len(ad.EvictionSilences) == 0 {
		t.Fatalf("fault drove no evictions (static %d, adaptive %d); nothing detected",
			len(static.EvictionSilences), len(ad.EvictionSilences))
	}

	// Documented budget: a backed-off stream widens the probe silence at
	// eviction by at most one MaxInterval (= 4× base) beyond the static
	// bound, and stays within the faults experiment's detection budget plus
	// that same one-gap allowance.
	maxInterval := 4 * interval
	if got, bound := ad.MaxEvictionSilence(), static.MaxEvictionSilence()+maxInterval; got > bound {
		t.Fatalf("adaptive worst-case eviction silence %v exceeds static %v + one max-cadence gap %v",
			got, static.MaxEvictionSilence(), maxInterval)
	}
	if got, bound := ad.MaxEvictionSilence(), DetectBudgetIntervals*interval+maxInterval; got > bound {
		t.Fatalf("adaptive worst-case eviction silence %v exceeds the detection budget %v", got, bound)
	}
}

// TestAdaptiveDisabledIsInert: with the controller off, the scenario must
// not even construct it — the run replays exactly the pre-adaptive event
// sequence (the existing smoke digests in CI enforce the byte-level
// identity; this guards the flag plumbing).
func TestAdaptiveDisabledIsInert(t *testing.T) {
	sc := Scenario{
		Seed:            5,
		Workload:        workload.Serverless,
		Metric:          core.MetricDelay,
		TaskCount:       15,
		RecordDecisions: true,
	}
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if plain.DirectivesApplied != 0 || plain.CadenceTightens != 0 || plain.CadenceBackoffs != 0 {
		t.Fatalf("disabled run recorded controller activity: %+v", plain)
	}
	again, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if decisionDigest(plain) != decisionDigest(again) {
		t.Fatal("disabled runs not reproducible")
	}
}

func TestAdaptiveRejectsBadBudget(t *testing.T) {
	cfg := adaptiveTestConfig()
	cfg.Budgets = []float64{1.5}
	if _, err := serial.Adaptive(cfg); err == nil {
		t.Fatal("budget fraction above 1 accepted")
	}
	cfg.Budgets = []float64{0}
	if _, err := serial.Adaptive(cfg); err == nil {
		t.Fatal("zero budget fraction accepted")
	}
}
