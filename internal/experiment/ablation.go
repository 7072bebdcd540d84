package experiment

import (
	"fmt"
	"time"

	"intsched/internal/core"
	"intsched/internal/stats"
	"intsched/internal/workload"
)

// The ablation experiment is the trial every extension beyond the paper's
// evaluated system stands to keep its place (DESIGN §8): the Fig 4 network
// under the main experiments' background traffic replays once per seed of a
// fixed list with the extension and with what it would replace, and the
// extension's row is the paired per-seed gain — in the metric the paper
// reports for that workload — with its 95 % t-interval. Rows that share a
// reference share its cells.

// AblationRow is one extension's trial.
type AblationRow struct {
	// Extension is what stands trial, Against the reference it is paired
	// with, Workload the jobs and ranking both run under.
	Extension, Against, Workload string
	// Transfer selects mean transfer time as the compared metric (mean
	// completion time otherwise).
	Transfer bool
	// PairedGain is the extension's gain against the reference.
	PairedGain
	// Note carries what the gain does not show.
	Note string
}

// AblationResult is the trial's outcome.
type AblationResult struct {
	// FittedK is what core.CalibrateK made of the Fig 3 sweep.
	FittedK time.Duration
	Rows    []AblationRow
}

// Ablation runs the trial over seeds at tasks tasks per cell: one cell per
// (seed, configuration) through the pool, after the Fig 3 sweep —
// fig3Duration per utilization level — that the fitted-k row takes its k
// from.
func (p *Pool) Ablation(seeds []int64, tasks int, fig3Duration time.Duration) (*AblationResult, error) {
	pts, err := p.Fig3(Fig3Config{Duration: fig3Duration, Seed: seeds[0]})
	if err != nil {
		return nil, err
	}
	fittedK, err := KFromFig3(pts)
	if err != nil {
		return nil, err
	}

	// The configurations, each a mutation of the common base.
	const (
		distBandwidth = iota
		distTransferTime
		distSchedulerOnly
		svlDelay
		svlPerPacket
		svlFittedK
		svlSkewed
		configs
	)
	const skew = 5 * time.Millisecond
	configure := func(i int, sc *Scenario) {
		sc.Workload, sc.Metric = workload.Serverless, core.MetricDelay
		switch i {
		case distBandwidth:
			sc.Workload, sc.Metric = workload.Distributed, core.MetricBandwidth
		case distTransferTime:
			sc.Workload, sc.Metric = workload.Distributed, core.MetricTransferTime
		case distSchedulerOnly:
			sc.Workload, sc.Metric = workload.Distributed, core.MetricBandwidth
			sc.SchedulerOnlyProbes = true
		case svlPerPacket:
			sc.PerPacketINT = true
		case svlFittedK:
			sc.K = fittedK
		case svlSkewed:
			sc.ClockSkew = skew
		}
	}
	base := Scenario{TaskCount: tasks, Background: BackgroundRandom}
	runs, err := p.replay(base, len(seeds)*configs, func(i int, sc *Scenario) {
		sc.Seed = seeds[i/configs]
		configure(i%configs, sc)
	})
	if err != nil {
		return nil, err
	}

	column := func(config int) []*RunResult {
		out := make([]*RunResult, len(seeds))
		for s := range seeds {
			out[s] = runs[s*configs+config]
		}
		return out
	}
	row := func(ext, against, wl string, transfer bool, variant, ref int) AblationRow {
		return AblationRow{Extension: ext, Against: against, Workload: wl, Transfer: transfer,
			PairedGain: Paired(column(ref), column(variant), transfer)}
	}
	perPacket := row("per-packet INT", "register staging", "serverless, delay", false, svlPerPacket, svlDelay)
	var intBytes uint64
	for _, r := range column(svlPerPacket) {
		intBytes += r.INTOverheadBytes
	}
	perPacket.Note = fmt.Sprintf("%.1f MB of telemetry on production packets per run (staging: 0)",
		float64(intBytes)/float64(len(seeds))/1e6)
	return &AblationResult{FittedK: fittedK, Rows: []AblationRow{
		row("transfer-time ranking", "bandwidth ranking", "distributed", true, distTransferTime, distBandwidth),
		row("coverage-planned probing", "scheduler-only probing", "distributed, bandwidth", true, distBandwidth, distSchedulerOnly),
		perPacket,
		row(fmt.Sprintf("k fitted by CalibrateK (%v)", fittedK.Round(time.Microsecond)), fmt.Sprintf("k = %v", core.DefaultK), "serverless, delay", false, svlFittedK, svlDelay),
		row(fmt.Sprintf("%v clock skew on half the switches", skew), "synchronized clocks", "serverless, delay", false, svlSkewed, svlDelay),
	}}, nil
}

// Table renders one row per trial.
func (a *AblationResult) Table() string {
	tb := stats.NewTable("on trial", "against", "workload", "metric", "seeds", "mean gain", "95% interval", "seeds won", "note")
	for _, r := range a.Rows {
		metric := "mean completion"
		if r.Transfer {
			metric = "mean transfer"
		}
		tb.AddRow(r.Extension, r.Against, r.Workload, metric, len(r.Gains),
			fmt.Sprintf("%+.1f%%", r.Mean*100), fmt.Sprintf("± %.1f%%", r.Half*100),
			fmt.Sprintf("%d/%d", r.Wins, len(r.Gains)), r.Note)
	}
	return tb.String()
}
