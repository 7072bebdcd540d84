package experiment

import (
	"fmt"
	"time"

	"intsched/internal/core"
	"intsched/internal/fault"
	"intsched/internal/stats"
)

// The faults experiment measures scheduler recovery on the Fig 4 deployment:
// the same workload replays once per ranking metric while a scripted failure
// schedule runs — an edge server's access link goes down, another edge server
// crashes and restarts, and a probe-loss burst degrades telemetry delivery.
// Every placement decision is classified against the simulator's ground-truth
// routing state at decision time, so the report shows, per metric, how long
// mis-scheduling persists after each failure. Network-aware rankers recover
// once probe silence ages the failed branch out of the learned topology
// (bounded by the adjacency TTL, i.e. a fixed number of probe intervals);
// the static Nearest baseline keeps scheduling into the failure for the whole
// fault window.

// FaultsConfig shapes the fault-recovery experiment.
type FaultsConfig struct {
	// Seed drives workload generation and probe-loss draws.
	Seed int64
	// TaskCount is the number of tasks per metric cell (default 200).
	TaskCount int
	// MeanInterarrival is the mean job inter-arrival time (default 600 ms).
	MeanInterarrival time.Duration
	// Metrics are the strategies to compare (default delay, bandwidth,
	// nearest, random).
	Metrics []core.Metric
}

func (c FaultsConfig) normalize() FaultsConfig {
	if c.TaskCount <= 0 {
		c.TaskCount = 200
	}
	if c.MeanInterarrival <= 0 {
		c.MeanInterarrival = faultInterarrival
	}
	if len(c.Metrics) == 0 {
		c.Metrics = []core.Metric{core.MetricDelay, core.MetricBandwidth, core.MetricNearest, core.MetricRandom}
	}
	return c
}

// FaultsResult is the outcome of the fault-recovery experiment: one full run
// per metric over the identical workload and failure schedule.
type FaultsResult struct {
	Cfg FaultsConfig
	// Events is the shared schedule (times relative to the warmup end).
	Events []fault.Event
	// Warm is the warmup offset that places Events on the absolute clock.
	Warm time.Duration
	// Runs holds one result per Cfg.Metrics entry, in order.
	Runs []*RunResult
}

// Faults runs one cell per metric through the pool.
func (p *Pool) Faults(cfg FaultsConfig) (*FaultsResult, error) {
	cfg = cfg.normalize()
	base := faultReplay(cfg.Seed, cfg.TaskCount, cfg.MeanInterarrival)
	runs, err := p.replay(base, len(cfg.Metrics), func(i int, sc *Scenario) {
		sc.Metric = cfg.Metrics[i]
	})
	if err != nil {
		return nil, err
	}
	return &FaultsResult{
		Cfg:    cfg,
		Events: base.Faults,
		Warm:   base.warmup(),
		Runs:   runs,
	}, nil
}

// DetectBudgetIntervals bounds, in probe intervals, how long the scheduler
// may keep mis-scheduling after a failure before it counts as unrecovered:
// the adjacency TTL (DefaultAdjacencyWindows x 2 probe intervals = 10) plus
// slack for the failure-straddling probe round and in-flight queries.
const DetectBudgetIntervals = 15

// FaultsRow is the per-metric summary of the experiment.
type FaultsRow struct {
	Metric core.Metric
	CellSummary
	// PreMis counts mis-scheduled decisions before the first fault.
	PreMis int
	// DetectMis counts mis-scheduled decisions inside a connectivity-fault
	// window within the detection budget of its start — the unavoidable
	// stale-view phase every collector-driven ranker pays.
	DetectMis int
	// SteadyMis counts mis-scheduled decisions inside a fault window past
	// the detection budget: a recovered scheduler scores zero here.
	SteadyMis int
	// RecoveryIntervals is the worst case, over the connectivity faults, of
	// the last mis-scheduled in-window decision's offset from the fault
	// start, in probe intervals (-1 when the metric never mis-scheduled).
	RecoveryIntervals float64
	// Evictions / Remaps / Reroutes are the re-mapping and reconvergence
	// counters from the run.
	Evictions, Remaps uint64
	Reroutes          int
}

// Recovered reports whether the metric stopped mis-scheduling within the
// detection budget of every connectivity fault.
func (r FaultsRow) Recovered() bool { return r.SteadyMis == 0 }

// Rows computes the per-metric summary, in Cfg.Metrics order.
func (f *FaultsResult) Rows() []FaultsRow {
	type window struct{ start, end time.Duration }
	var wins []window
	for _, ev := range f.Events {
		if ev.Kind == fault.ProbeLoss {
			continue // no connectivity change to recover from
		}
		wins = append(wins, window{f.Warm + ev.At, f.Warm + ev.At + ev.Duration})
	}
	budget := DetectBudgetIntervals * FaultProbeInterval
	out := make([]FaultsRow, len(f.Runs))
	for i, run := range f.Runs {
		row := FaultsRow{
			Metric:            f.Cfg.Metrics[i],
			CellSummary:       summarize(run),
			RecoveryIntervals: -1,
			Evictions:         run.AdjacencyEvictions,
			Remaps:            run.PathRemaps,
			Reroutes:          run.FaultStats.Reroutes,
		}
		firstFault := wins[0].start
		for _, d := range run.Decisions {
			if d.Usable {
				continue
			}
			if d.At < firstFault {
				row.PreMis++
			}
			for _, w := range wins {
				if d.At < w.start || d.At >= w.end {
					continue
				}
				if d.At < w.start+budget {
					row.DetectMis++
				} else {
					row.SteadyMis++
				}
				if off := float64(d.At-w.start) / float64(FaultProbeInterval); off > row.RecoveryIntervals {
					row.RecoveryIntervals = off
				}
			}
		}
		out[i] = row
	}
	return out
}

// Table renders the per-metric summary.
func (f *FaultsResult) Table() string {
	tb := stats.NewTable("metric", "decisions", "mis", "pre-fault", "detect", "steady",
		"last mis (probe ivals)", "recovered", "mean completion", "incomplete", "evictions", "remaps", "reroutes")
	for _, r := range f.Rows() {
		last := "-"
		if r.RecoveryIntervals >= 0 {
			last = fmt.Sprintf("%.0f", r.RecoveryIntervals)
		}
		tb.AddRow(r.Metric.String(), r.Decisions, r.Mis, r.PreMis, r.DetectMis, r.SteadyMis,
			last, r.Recovered(), time.Duration(r.MeanCompletion).Round(time.Millisecond), r.Incomplete,
			r.Evictions, r.Remaps, r.Reroutes)
	}
	return tb.String()
}
