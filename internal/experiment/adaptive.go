package experiment

import (
	"fmt"
	"time"

	"intsched/internal/stats"
)

// The adaptive experiment measures what the control loop buys: total probe
// bytes against fault-detection latency and mis-schedule rate, static
// versus adaptive at several telemetry budgets. Every cell replays the
// fault-recovery workload (the same Fig 4 schedule as -exp faults). Three
// kinds of cells share the axis:
//
//   - static-full: the paper's static cadence at the base interval — the
//     bytes ceiling every adaptive cell must undercut.
//   - static-<f>: static cadence stretched to base/f, i.e. the naive way to
//     spend a fraction-f budget. Its queue window and adjacency TTL stretch
//     with the interval, so fault detection slows proportionally.
//   - adaptive-<f>: the controller at the base interval under a budget of
//     f × the static full rate. The queue window (and therefore the TTL)
//     stays anchored to the base interval, so detection stays fast while
//     back-off spends the budget where the network churns.
//
// The experiment enforces its claims as errors rather than reporting them:
// each adaptive cell must use fewer probe bytes than static-full, mis-
// schedule no more than the equal-budget static cell, and detect faults
// (worst-case eviction silence) no slower than the equal-budget static
// cell. Each cell's digest folds the placement decisions and the
// controller's decision counters, so a `-parallel 1` vs `-parallel 4` diff
// proves the control loop replays identically under pool interleaving.

// AdaptiveConfig shapes the adaptive experiment.
type AdaptiveConfig struct {
	// Seed drives workload generation and probe-loss draws.
	Seed int64
	// TaskCount is the number of tasks per cell (default 200, 60 under
	// Smoke).
	TaskCount int
	// Budgets are the telemetry budget fractions to sweep (default 0.5,
	// 0.25). Each adds a static-<f> and an adaptive-<f> cell.
	Budgets []float64
	// Smoke shrinks the experiment to CI size: fewer tasks, one budget.
	Smoke bool
}

// AdaptiveCell is one measured configuration.
type AdaptiveCell struct {
	// Name labels the cell: "static-full", "static-<f>", "adaptive-<f>".
	Name string `json:"name"`
	// Budget is the telemetry budget fraction (1.0 for static-full).
	Budget float64 `json:"budget"`
	// Adaptive marks controller-driven cells.
	Adaptive bool `json:"adaptive"`
	// ProbeInterval is the cell's configured (base) probing period.
	ProbeInterval Millis `json:"probe_interval_ms"`
	CellSummary
	// ProbesSent / TelemetryBytes are the telemetry spend.
	ProbesSent     uint64 `json:"probes_sent"`
	TelemetryBytes uint64 `json:"telemetry_bytes"`
	// Evictions counts adjacency evictions; MaxDetect is the worst-case
	// probe silence at eviction (the fault-detection latency bound).
	Evictions int    `json:"evictions"`
	MaxDetect Millis `json:"max_detect_ms"`
	// Controller activity (zero for static cells).
	Directives      uint64 `json:"directives"`
	Tightens        uint64 `json:"tightens"`
	SilenceTightens uint64 `json:"silence_tightens"`
	Backoffs        uint64 `json:"backoffs"`
	BudgetClamps    uint64 `json:"budget_clamps"`
	// Digest hashes the placement decisions, task metrics, probe spend,
	// and controller counters — byte-identical across pool parallelism.
	Digest string `json:"digest"`
}

// AdaptiveResult is the full experiment; it marshals to the recorded
// artifact.
type AdaptiveResult struct {
	SweepHeader
	// Cells: static-full first, then static-<f>, adaptive-<f> per budget.
	Cells []AdaptiveCell `json:"cells"`
}

// adaptiveDigest extends the decision digest with the run's probe spend
// and controller decision counters, so the CI parallelism diff also proves
// the control loop itself — not just its scheduling consequences — replays
// deterministically.
func adaptiveDigest(run *RunResult) string {
	return fmt.Sprintf("%s-%x", decisionDigest(run),
		run.ProbesSent^run.DirectivesApplied<<1^run.CadenceTightens<<2^
			run.SilenceTightens<<3^run.CadenceBackoffs<<4^run.BudgetClamps<<5^
			uint64(len(run.EvictionSilences))<<6)
}

// Adaptive sweeps static and adaptive cadence control over the fault-
// recovery workload and enforces the control loop's claims.
func (p *Pool) Adaptive(cfg AdaptiveConfig) (*AdaptiveResult, error) {
	if len(cfg.Budgets) == 0 {
		cfg.Budgets = []float64{0.5, 0.25}
		if cfg.Smoke {
			cfg.Budgets = []float64{0.5}
		}
	}
	res := &AdaptiveResult{SweepHeader: newSweepHeader("adaptive", cfg.Seed, cfg.TaskCount, cfg.Smoke)}

	base := Millis(FaultProbeInterval)
	res.Cells = []AdaptiveCell{{Name: "static-full", Budget: 1.0, ProbeInterval: base}}
	for _, f := range cfg.Budgets {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("adaptive: budget fraction %v outside (0, 1]", f)
		}
		res.Cells = append(res.Cells,
			AdaptiveCell{Name: fmt.Sprintf("static-%.2f", f), Budget: f, ProbeInterval: Millis(float64(base) / f)},
			AdaptiveCell{Name: fmt.Sprintf("adaptive-%.2f", f), Budget: f, Adaptive: true, ProbeInterval: base},
		)
	}
	runs, err := p.replay(res.scenario(), len(res.Cells), func(i int, sc *Scenario) {
		c := &res.Cells[i]
		sc.ProbeInterval = time.Duration(c.ProbeInterval)
		sc.Adaptive = c.Adaptive
		if c.Adaptive {
			sc.ProbeBudget = c.Budget
		}
	})
	if err != nil {
		return nil, err
	}
	for i, run := range runs {
		c := &res.Cells[i]
		c.CellSummary = summarize(run)
		c.ProbesSent = run.ProbesSent
		c.TelemetryBytes = run.TelemetryBytes
		c.Evictions = len(run.EvictionSilences)
		c.MaxDetect = Millis(run.MaxEvictionSilence())
		c.Directives = run.DirectivesApplied
		c.Tightens = run.CadenceTightens
		c.SilenceTightens = run.SilenceTightens
		c.Backoffs = run.CadenceBackoffs
		c.BudgetClamps = run.BudgetClamps
		c.Digest = adaptiveDigest(run)
	}

	// Enforce the control loop's claims cell by cell. Index layout:
	// 0 = static-full, then (static, adaptive) pairs per budget.
	full := &res.Cells[0]
	for bi := range cfg.Budgets {
		st, ad := &res.Cells[1+2*bi], &res.Cells[2+2*bi]
		if ad.TelemetryBytes >= full.TelemetryBytes {
			return nil, fmt.Errorf("adaptive: %s spent %d probe bytes, not below static-full's %d (back-off never paid for itself)",
				ad.Name, ad.TelemetryBytes, full.TelemetryBytes)
		}
		if ad.Mis > st.Mis {
			return nil, fmt.Errorf("adaptive: %s mis-scheduled %d tasks vs %d for %s at the same budget (fresh cadence should not schedule worse)",
				ad.Name, ad.Mis, st.Mis, st.Name)
		}
		if st.Evictions > 0 && ad.Evictions > 0 && ad.MaxDetect > st.MaxDetect {
			return nil, fmt.Errorf("adaptive: %s worst-case detection %v exceeds %v for %s at the same budget (the controller masked a failure)",
				ad.Name, time.Duration(ad.MaxDetect), time.Duration(st.MaxDetect), st.Name)
		}
		// Tight budgets may reach max cadence purely through budget clamps
		// (the allocator grows every interval on the first evaluation before
		// any stream earns a voluntary back-off), so "the controller
		// engaged" means directives were applied, not that any one reason
		// fired.
		if ad.Directives == 0 {
			return nil, fmt.Errorf("adaptive: %s applied no directives — the controller never engaged", ad.Name)
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *AdaptiveResult) Table() string {
	tb := stats.NewTable("adaptive", "budget", "interval", "probes", "probe bytes", "mis", "mis %",
		"evictions", "max detect", "directives", "backoffs", "clamps", "digest")
	for _, c := range r.Cells {
		tb.AddRow(c.Name, fmt.Sprintf("%.2f", c.Budget), time.Duration(c.ProbeInterval),
			c.ProbesSent, c.TelemetryBytes, c.Mis, fmt.Sprintf("%.2f", c.MisPct),
			c.Evictions, time.Duration(c.MaxDetect).Round(time.Millisecond),
			c.Directives, c.Backoffs, c.BudgetClamps, c.Digest)
	}
	return tb.String()
}
