package experiment

import (
	"testing"

	"intsched/internal/core"
	"intsched/internal/workload"
)

// TestPaperDirection holds the paper's two clearest claims as paired
// multi-seed rows on its Fig 4 network: delay ranking beats Nearest on the
// serverless workload's mean completion (Fig 5), and bandwidth ranking beats
// Nearest on the distributed workload's mean transfer (Fig 7), each with the
// 95 % interval's lower bound above zero over all of PairedSeeds at 60
// tasks. The simulator is deterministic, so the rows are fixed numbers.
func TestPaperDirection(t *testing.T) {
	if raceEnabled {
		t.Skip("16 whole-scenario replays per row; run without -race")
	}
	for _, c := range []struct {
		name     string
		kind     workload.Kind
		metric   core.Metric
		transfer bool
	}{
		{"fig5 serverless delay, mean completion", workload.Serverless, core.MetricDelay, false},
		{"fig7 distributed bandwidth, mean transfer", workload.Distributed, core.MetricBandwidth, true},
	} {
		nearest, ranked, err := NewPool(2).AgainstNearest(Scenario{
			Workload:   c.kind,
			Metric:     c.metric,
			TaskCount:  60,
			Background: BackgroundRandom,
		}, PairedSeeds)
		if err != nil {
			t.Fatal(err)
		}
		g := Paired(nearest, ranked, c.transfer)
		t.Logf("%s vs nearest: %v", c.name, g)
		if g.Mean-g.Half <= 0 {
			t.Errorf("%s vs nearest: %v, want the interval above zero", c.name, g)
		}
	}
}
