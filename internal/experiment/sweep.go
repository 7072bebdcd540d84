package experiment

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"time"

	"intsched/internal/core"
	"intsched/internal/fault"
	"intsched/internal/probe"
	"intsched/internal/workload"
)

// The faults and adaptive experiments are one sweep over one
// scenario: the serverless workload on the Fig 4 deployment under a scripted
// failure schedule, with the recovery policy on and every placement decision
// classified against the simulator's ground-truth routing state. A sweep is
// its axis — the cells, each one change to that scenario — plus the contract
// it checks on the runs; everything else lives here.

const (
	// FaultProbeInterval is the INT probing period of the fault replay.
	FaultProbeInterval = probe.DefaultInterval
	// faultInterarrival is the replay's mean job inter-arrival time — denser
	// than the paper's 5 s so each fault window holds enough decisions to
	// estimate mis-scheduling rates.
	faultInterarrival = 600 * time.Millisecond
)

// faultSchedule is the scripted failure sequence over a workload expected to
// last span, with event times relative to the end of the collector warmup
// (Scenario.Faults semantics). Names refer to the Fig 4 topology:
//
//   - n3's access link (n3-s04) goes down at 15% of the workload span for
//     25% of it — n3 stays unreachable for the whole window since an access
//     link has no alternate path.
//   - edge server n2 crashes at 55% for 20% — probes from n2 stop and
//     traffic toward it is dropped until it restarts.
//   - a 30% probe-loss burst runs at 80% for 10% — telemetry degradation
//     without any connectivity change.
func faultSchedule(span time.Duration) []fault.Event {
	return []fault.Event{
		{Kind: fault.LinkDown, At: span * 15 / 100, Duration: span * 25 / 100, A: "n3", B: "s04"},
		{Kind: fault.NodeHalt, At: span * 55 / 100, Duration: span * 20 / 100, Node: "n2"},
		{Kind: fault.ProbeLoss, At: span * 80 / 100, Duration: span * 10 / 100, Rate: 0.3},
	}
}

// faultReplay is the scenario every sweep cell starts from.
func faultReplay(seed int64, tasks int, interarrival time.Duration) Scenario {
	return Scenario{
		Seed:               seed,
		Workload:           workload.Serverless,
		Metric:             core.MetricDelay,
		TaskCount:          tasks,
		MeanInterarrival:   interarrival,
		ProbeInterval:      FaultProbeInterval,
		Faults:             faultSchedule(time.Duration(tasks) * interarrival),
		ExcludeUnreachable: true,
		RecordDecisions:    true,
	}
}

// replay runs base once per cell — mutate(i, sc) applies cell i's change to
// its copy — and returns the runs in cell order.
func (p *Pool) replay(base Scenario, n int, mutate func(i int, sc *Scenario)) ([]*RunResult, error) {
	cells := make([]Scenario, n)
	for i := range cells {
		cells[i] = base
		mutate(i, &cells[i])
	}
	return p.RunScenarios(cells)
}

// Millis is a duration that marshals as fractional milliseconds at
// microsecond resolution, the unit of the recorded artifacts.
type Millis time.Duration

// MarshalJSON implements json.Marshaler.
func (m Millis) MarshalJSON() ([]byte, error) {
	return json.Marshal(float64(time.Duration(m).Microseconds()) / 1000)
}

// CellSummary is the scheduling outcome of one fault-replay run, embedded
// by every sweep's cell type.
type CellSummary struct {
	// Decisions / Mis count all placement decisions and the mis-scheduled
	// ones (placements unusable at decision time); MisPct is their ratio in
	// percent.
	Decisions int     `json:"decisions"`
	Mis       int     `json:"mis"`
	MisPct    float64 `json:"mis_pct"`
	// MeanCompletion / Incomplete summarize task outcomes under faults.
	MeanCompletion Millis `json:"mean_completion_ms"`
	Incomplete     int    `json:"incomplete"`
}

func summarize(run *RunResult) CellSummary {
	s := CellSummary{
		Decisions:      len(run.Decisions),
		Mis:            run.MisScheduled(),
		MeanCompletion: Millis(run.MeanCompletion()),
		Incomplete:     run.Incomplete,
	}
	if s.Decisions > 0 {
		s.MisPct = 100 * float64(s.Mis) / float64(s.Decisions)
	}
	return s
}

// decisionDigest hashes a run's placement decisions and figure-level task
// metrics.
func decisionDigest(run *RunResult) string {
	h := fnv.New64a()
	for i := range run.Decisions {
		d := &run.Decisions[i]
		fmt.Fprintf(h, "%d %d %s %s %t\n", d.At.Nanoseconds(), d.TaskID, d.Device, d.Server, d.Usable)
	}
	fmt.Fprintf(h, "mc=%d mt=%d inc=%d\n",
		run.MeanCompletion().Nanoseconds(), run.MeanTransfer().Nanoseconds(), run.Incomplete)
	return fmt.Sprintf("%016x", h.Sum64())
}

// SweepHeader sizes the adaptive sweep's fault replay and leads its
// recorded artifact.
type SweepHeader struct {
	Bench string `json:"bench"`
	// Smoke marks a CI-size run: fewer tasks and a shorter axis.
	Smoke bool  `json:"smoke"`
	Seed  int64 `json:"seed"`
	Tasks int   `json:"tasks"`
}

// newSweepHeader applies the sweep defaults: seed 1, and 200 tasks
// per cell — 60 under smoke — unless the caller asked for a count.
func newSweepHeader(bench string, seed int64, tasks int, smoke bool) SweepHeader {
	if seed == 0 {
		seed = 1
	}
	if tasks <= 0 {
		tasks = 200
		if smoke {
			tasks = 60
		}
	}
	return SweepHeader{Bench: bench, Smoke: smoke, Seed: seed, Tasks: tasks}
}

func (h SweepHeader) scenario() Scenario {
	return faultReplay(h.Seed, h.Tasks, faultInterarrival)
}
