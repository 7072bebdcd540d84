package experiment

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"intsched/internal/core"
	"intsched/internal/fault"
	"intsched/internal/workload"
)

// pinnedScenarios are the simulations whose answers TestSimulatorAnswersPinned
// holds fixed: the four scenarios of the benchmark's sim_paper lap, and one
// fault-replay cell whose faults land on loaded wires. The degrade raises
// s07-s08's delay and reverts it while packets are crossing at the raised
// delay, so packets that depart after the revert overtake them; the flap
// takes s08-s09 down for less than its propagation delay, so the packets on
// that wire die even though the link is up again when they land.
func pinnedScenarios() map[string]Scenario {
	lap := func(kind workload.Kind, metric core.Metric) Scenario {
		return Scenario{Seed: 7, Workload: kind, Metric: metric, TaskCount: 10, Background: BackgroundRandom}
	}
	faults := faultReplay(7, 10, faultInterarrival)
	faults.Background = BackgroundRandom
	faults.Faults = []fault.Event{
		{Kind: fault.LinkDegrade, At: time.Second, Duration: 2 * time.Second, A: "s07", B: "s08", Delay: 60 * time.Millisecond},
		{Kind: fault.LinkDown, At: 1500 * time.Millisecond, Duration: 5 * time.Millisecond, A: "s08", B: "s09"},
	}
	return map[string]Scenario{
		"serverless/delay":        lap(workload.Serverless, core.MetricDelay),
		"serverless/nearest":      lap(workload.Serverless, core.MetricNearest),
		"distributed/bandwidth":   lap(workload.Distributed, core.MetricBandwidth),
		"distributed/nearest":     lap(workload.Distributed, core.MetricNearest),
		"faults/degrade-and-flap": faults,
	}
}

// answerDigest folds what a run answered into an FNV-1a digest: every task's
// placement and times, and the run's event, probe and drop counts. Any
// change to the simulator's event order moves at least one of them.
func answerDigest(run *RunResult) string {
	h := fnv.New64a()
	for _, r := range run.Results {
		fmt.Fprintf(h, "%d %s %s %d %d\n", r.TaskID, r.Device, r.Server,
			r.CompletionTime().Nanoseconds(), r.TransferTime().Nanoseconds())
	}
	fmt.Fprintf(h, "events=%d sent=%d received=%d dropped=%d virtual=%d\n", run.EventsProcessed,
		run.ProbesSent, run.ProbesReceived, run.PacketsDropped, run.VirtualDuration.Nanoseconds())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSimulatorAnswersPinned compares each pinned scenario's answer digest
// with the one recorded before the simulator's event queue last changed. A
// change to simtime or netsim that is meant to be a pure speed-up must leave
// every digest as it is; one that changes behaviour on purpose re-records
// them and says why.
func TestSimulatorAnswersPinned(t *testing.T) {
	want := map[string]string{
		"serverless/delay":        "6f0f78a097ebb743",
		"serverless/nearest":      "369d3f34c40831e8",
		"distributed/bandwidth":   "633c9282b4257f77",
		"distributed/nearest":     "cb8fe65acd017b85",
		"faults/degrade-and-flap": "3a935a1055c8fbb5",
	}
	for name, sc := range pinnedScenarios() {
		run, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := answerDigest(run); got != want[name] {
			t.Errorf("%s: answer digest %s, want %s (events %d, probes %d/%d, dropped %d, virtual %v)", name, got, want[name],
				run.EventsProcessed, run.ProbesReceived, run.ProbesSent, run.PacketsDropped, run.VirtualDuration)
		}
	}
}
