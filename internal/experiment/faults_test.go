package experiment

import (
	"testing"
	"time"

	"intsched/internal/core"
)

func faultsTestConfig() FaultsConfig {
	return FaultsConfig{
		Seed:             42,
		TaskCount:        80,
		MeanInterarrival: 300 * time.Millisecond,
		Metrics:          []core.Metric{core.MetricDelay, core.MetricNearest},
	}
}

// TestFaultsExperimentRecovery is the experiment's headline contract: under
// the scripted failure schedule, the network-aware delay ranker stops
// mis-scheduling within the detection budget (the fault ages out of the
// learned topology), while the static Nearest baseline keeps scheduling into
// the failure for the whole fault window.
func TestFaultsExperimentRecovery(t *testing.T) {
	res, err := serial.Faults(faultsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	delay, nearest := rows[0], rows[1]

	if delay.Decisions == 0 || nearest.Decisions == 0 {
		t.Fatalf("no decisions recorded: %+v", rows)
	}
	if delay.PreMis != 0 || nearest.PreMis != 0 {
		t.Fatalf("mis-scheduling before any fault: delay %d, nearest %d", delay.PreMis, nearest.PreMis)
	}
	if !delay.Recovered() {
		t.Fatalf("delay ranker did not recover: %+v", delay)
	}
	if nearest.Recovered() {
		t.Fatalf("nearest unexpectedly recovered (no steady-state mis-scheduling): %+v", nearest)
	}
	if nearest.SteadyMis == 0 || nearest.Mis <= delay.Mis {
		t.Fatalf("nearest should keep mis-scheduling into the fault: delay %+v, nearest %+v", delay, nearest)
	}
	// Recovery must actually be driven by the re-mapping machinery.
	if delay.Evictions == 0 {
		t.Fatalf("no adjacency evictions during faults: %+v", delay)
	}
	if res.Runs[0].FaultStats.EventsApplied == 0 || delay.Reroutes == 0 {
		t.Fatalf("fault timeline inactive: %+v", res.Runs[0].FaultStats)
	}
	if delay.RecoveryIntervals < 0 || delay.RecoveryIntervals > DetectBudgetIntervals {
		t.Fatalf("delay recovery offset %.0f probe intervals, want within the detection budget", delay.RecoveryIntervals)
	}
}
