// Package adapt implements the adaptive probing control loop: a
// deterministic, rule-based controller (an AdapINT-lite feedback loop, after
// arxiv 2310.19331) that consumes collector-side churn signals — per-device
// windowed queue variance, adjacency eviction tombstones and path-remap
// events — and emits per-stream probe-cadence directives.
// Edges that are churning get probed faster (halving toward MinInterval),
// stable edges back off (doubling toward MaxInterval), streams that share a
// device with a churning stream are pulled back to the base cadence
// (fan-out tightening), and a stream that has gone silent is tightened to
// MinInterval rather than backed off — silence is the one signal the
// controller must never mask, because adjacency aging turns it into an
// eviction.
//
// The whole loop is clamped to a global probes-per-second / bytes-per-second
// telemetry budget: when the allocated cadences oversubscribe the budget,
// a deterministic priority-ordered allocator doubles the intervals of the
// least-important streams (backed-off first, tightened last) until the
// aggregate rate fits.
//
// The controller is a pure function of its inputs: no wall clock, no
// randomness, no map-ordered output. Signals arrive sorted by (origin,
// target); directives are emitted in that order with a monotonic sequence
// number. Replaying the same signal sequence therefore replays the same
// directives byte for byte, which is what lets the sim driver keep scenario
// digests identical at any pool parallelism. The controller is not
// goroutine-safe; drivers serialize calls (the sim engine is single-threaded
// per scenario, the live daemon runs one control goroutine).
package adapt

import (
	"fmt"
	"time"
)

// Defaults for Config.
const (
	// DefaultBaseInterval is the paper's static probing period.
	DefaultBaseInterval = 100 * time.Millisecond
	// DefaultBytesPerProbe is the assumed on-wire cost of one probe when
	// translating a bytes-per-second budget into probes per second (probes
	// are MTU-sized).
	DefaultBytesPerProbe = 1500
	// DefaultQueueVarThreshold is the windowed max-queue variance (in
	// packets²) above which a stream's path counts as churning.
	DefaultQueueVarThreshold = 4.0
	// DefaultSilenceIntervals is how many of the stream's own intervals may
	// pass without an accepted probe before the stream counts as silent.
	DefaultSilenceIntervals = 3
	// DefaultStableRounds is how many consecutive quiet evaluations a
	// stream must accumulate before its cadence backs off one step.
	DefaultStableRounds = 2
)

// Config tunes the controller. The zero value gives the documented
// defaults: base 100 ms, clamp bounds [base/4, 4×base], evaluation every
// 5×base, no budget.
//
// MaxInterval must stay below half the collector's adjacency TTL (the
// default 4×base = 400 ms against the experiment's TTL of 10×base = 1 s)
// so that even a fully backed-off stream re-confirms its edges at least
// twice per TTL: back-off must never cause a live edge to age out.
type Config struct {
	// BaseInterval is the cadence assigned to new streams and the level
	// fan-out tightening pulls shared-path streams back to. Zero means
	// DefaultBaseInterval.
	BaseInterval time.Duration
	// MinInterval and MaxInterval clamp every directive. Zero means
	// BaseInterval/4 and 4×BaseInterval respectively.
	MinInterval time.Duration
	MaxInterval time.Duration
	// EvalInterval is how often drivers run Decide. Zero means
	// 5×BaseInterval.
	EvalInterval time.Duration
	// MaxProbesPerSec and MaxBytesPerSec cap the aggregate allocated probe
	// rate; zero means unlimited. When both are set the tighter one wins.
	MaxProbesPerSec float64
	MaxBytesPerSec  float64
	// BytesPerProbe converts MaxBytesPerSec into probes per second. Zero
	// means DefaultBytesPerProbe.
	BytesPerProbe int
	// QueueVarThreshold classifies a path as churning when any of its
	// devices' in-window max-queue variance reaches it. Zero means
	// DefaultQueueVarThreshold.
	QueueVarThreshold float64
	// SilenceIntervals and StableRounds tune the silence and back-off
	// rules. Zero means the defaults.
	SilenceIntervals int
	StableRounds     int
}

// CheckBudget validates a probe budget given as a fraction of the fleet's
// static full-cadence rate, as the simulator and the live daemon take it:
// zero means no budget, and a non-zero budget must lie in (0, 1] and needs
// the controller, the only part that spends it.
func CheckBudget(fraction float64, adaptive bool) error {
	if !(fraction >= 0 && fraction <= 1) {
		return fmt.Errorf("probe budget %v outside [0, 1]", fraction)
	}
	if fraction != 0 && !adaptive {
		return fmt.Errorf("probe budget %v requires the adaptive controller", fraction)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.BaseInterval <= 0 {
		c.BaseInterval = DefaultBaseInterval
	}
	if c.MinInterval <= 0 {
		c.MinInterval = c.BaseInterval / 4
	}
	if c.MaxInterval <= 0 {
		c.MaxInterval = 4 * c.BaseInterval
	}
	if c.MinInterval > c.BaseInterval {
		c.MinInterval = c.BaseInterval
	}
	if c.MaxInterval < c.BaseInterval {
		c.MaxInterval = c.BaseInterval
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 5 * c.BaseInterval
	}
	if c.BytesPerProbe <= 0 {
		c.BytesPerProbe = DefaultBytesPerProbe
	}
	if c.QueueVarThreshold <= 0 {
		c.QueueVarThreshold = DefaultQueueVarThreshold
	}
	if c.SilenceIntervals <= 0 {
		c.SilenceIntervals = DefaultSilenceIntervals
	}
	if c.StableRounds <= 0 {
		c.StableRounds = DefaultStableRounds
	}
	return c
}

// Signal is the controller-facing digest of one probe stream, derived from
// collector state (collector.StreamSignals).
type Signal struct {
	Origin, Target string
	// Age is the time since the stream's last accepted probe.
	Age time.Duration
	// Remaps is the stream's cumulative path-remap count; the controller
	// reacts to its deltas.
	Remaps uint64
	// Devices are the interior devices of the stream's last known path.
	Devices []string
	// QueueVar is the maximum in-window max-queue variance across Devices.
	QueueVar float64
	// EvictedOnPath counts path edges currently tombstoned by aging.
	EvictedOnPath int
}

// Reason classifies why a directive changed a stream's cadence.
type Reason uint8

const (
	// ReasonNone marks an unchanged cadence (never emitted).
	ReasonNone Reason = iota
	// ReasonTighten halves the interval of a churning stream.
	ReasonTighten
	// ReasonSilence drops a silent stream to MinInterval: probes have
	// stopped arriving and the fastest cadence gives adjacency aging the
	// earliest possible confirmation or eviction.
	ReasonSilence
	// ReasonFanOut pulls a stream sharing a device with a churning path
	// back to the base cadence.
	ReasonFanOut
	// ReasonBackoff doubles the interval of a stream that has been quiet
	// for StableRounds evaluations.
	ReasonBackoff
	// ReasonBudget marks an interval grown by the budget allocator.
	ReasonBudget
)

// String returns the reason's stable label (used as an obs counter label).
func (r Reason) String() string {
	switch r {
	case ReasonTighten:
		return "tighten"
	case ReasonSilence:
		return "silence"
	case ReasonFanOut:
		return "fanout"
	case ReasonBackoff:
		return "backoff"
	case ReasonBudget:
		return "budget"
	default:
		return "none"
	}
}

// Directive instructs one probe stream to adopt a new cadence. Seq is a
// controller-wide monotonic sequence number; appliers must ignore
// directives whose Seq is not newer than the last one they applied, so a
// reordered frame on the live path cannot roll a cadence back.
type Directive struct {
	Origin, Target string
	Interval       time.Duration
	Reason         Reason
	Seq            uint64
}

// Stats are the controller's cumulative decision counters plus the
// allocation state of the latest evaluation.
type Stats struct {
	// Evaluations counts Decide calls; Directives counts emitted cadence
	// changes.
	Evaluations, Directives uint64
	// Tightens counts churn-driven halvings, SilenceTightens the
	// silence-rule drops to MinInterval, FanOuts the shared-device pulls,
	// Backoffs the stability doublings, BudgetClamps the allocator grows.
	Tightens, SilenceTightens, FanOuts, Backoffs, BudgetClamps uint64
	// ProbeRate is the aggregate allocated probe rate (probes/s) after the
	// latest evaluation; BudgetUtilization is ProbeRate over the effective
	// budget cap (zero when unlimited).
	ProbeRate, BudgetUtilization float64
}

// CadenceSummary buckets the current per-stream cadences into the three
// exported edge classes: tight (< base), base (== base), and backoff
// (> base), with the mean interval of each class in microseconds — the
// shape behind the intsched_probe_cadence_us gauges.
type CadenceSummary struct {
	TightStreams, BaseStreams, BackoffStreams int
	TightMicros, BaseMicros, BackoffMicros    float64
}
