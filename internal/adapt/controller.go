package adapt

import (
	"sort"
	"time"
)

// streamKey identifies one probe stream, mirroring the collector's
// (origin, target) sequence spaces.
type streamKey struct{ origin, target string }

// streamState is the controller's memory of one stream between
// evaluations.
type streamState struct {
	interval time.Duration
	remaps   uint64
	quiet    int
	seen     bool
}

// Controller applies the cadence rules. Construct with NewController; call
// Decide with the full sorted signal set each evaluation. Not
// goroutine-safe — drivers serialize access.
type Controller struct {
	cfg     Config
	streams map[streamKey]*streamState
	seq     uint64
	stats   Stats
}

// NewController creates a controller with cfg's zero fields defaulted.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg.withDefaults(), streams: make(map[streamKey]*streamState)}
}

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns the cumulative decision counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetBudget replaces the rate caps before the next evaluation (zero means
// unlimited). The live daemon uses it to re-derive an absolute
// probes-per-second cap from a budget fraction as streams come and go; the
// sim driver never calls it, so scenario budgets stay fixed.
func (c *Controller) SetBudget(probesPerSec, bytesPerSec float64) {
	c.cfg.MaxProbesPerSec = probesPerSec
	c.cfg.MaxBytesPerSec = bytesPerSec
}

// Cadences buckets the tracked streams into the tight/base/backoff edge
// classes. Map iteration order does not matter: the sums are commutative
// over integer nanosecond intervals.
func (c *Controller) Cadences() CadenceSummary {
	var s CadenceSummary
	var tightNs, baseNs, backoffNs int64
	for _, st := range c.streams {
		switch {
		case st.interval < c.cfg.BaseInterval:
			s.TightStreams++
			tightNs += int64(st.interval)
		case st.interval > c.cfg.BaseInterval:
			s.BackoffStreams++
			backoffNs += int64(st.interval)
		default:
			s.BaseStreams++
			baseNs += int64(st.interval)
		}
	}
	if s.TightStreams > 0 {
		s.TightMicros = float64(tightNs) / float64(s.TightStreams) / 1e3
	}
	if s.BaseStreams > 0 {
		s.BaseMicros = float64(baseNs) / float64(s.BaseStreams) / 1e3
	}
	if s.BackoffStreams > 0 {
		s.BackoffMicros = float64(backoffNs) / float64(s.BackoffStreams) / 1e3
	}
	return s
}

// budgetCap returns the effective probes-per-second ceiling, or 0 when
// unlimited.
func (c *Controller) budgetCap() float64 {
	cap := c.cfg.MaxProbesPerSec
	if c.cfg.MaxBytesPerSec > 0 {
		byCap := c.cfg.MaxBytesPerSec / float64(c.cfg.BytesPerProbe)
		if cap <= 0 || byCap < cap {
			cap = byCap
		}
	}
	return cap
}

func (c *Controller) clamp(d time.Duration) time.Duration {
	if d < c.cfg.MinInterval {
		return c.cfg.MinInterval
	}
	if d > c.cfg.MaxInterval {
		return c.cfg.MaxInterval
	}
	return d
}

// pending is one stream's provisional decision before the fan-out and
// budget passes.
type pending struct {
	sig     *Signal
	st      *streamState
	desired time.Duration
	reason  Reason
	churn   bool
}

// prio orders streams for the budget allocator: lower values grow first.
// Backed-off streams are the cheapest to slow further, base-cadence
// streams next, fan-out pulls after that; churn- and silence-tightened
// streams are slowed only when nothing else fits.
func (p *pending) prio() int {
	switch p.reason {
	case ReasonSilence, ReasonTighten:
		return 3
	case ReasonFanOut:
		return 2
	case ReasonBackoff:
		return 0
	default:
		return 1
	}
}

// Decide runs one evaluation over the full signal set (sorted by origin,
// target — collector.StreamSignals' order) and returns the cadence
// directives for every stream whose interval changed. State for streams
// absent from sigs is forgotten.
func (c *Controller) Decide(sigs []Signal) []Directive {
	c.stats.Evaluations++
	for _, st := range c.streams {
		st.seen = false
	}

	pend := make([]pending, 0, len(sigs))
	churnDevs := make(map[string]bool)
	for i := range sigs {
		sig := &sigs[i]
		key := streamKey{sig.Origin, sig.Target}
		st := c.streams[key]
		if st == nil {
			st = &streamState{interval: c.cfg.BaseInterval, remaps: sig.Remaps}
			c.streams[key] = st
		}
		st.seen = true

		dRemaps := sig.Remaps - st.remaps
		if sig.Remaps < st.remaps {
			// The stream restarted (the counter went backwards); treat the
			// new count as a fresh baseline, not as churn.
			dRemaps = 0
		}
		st.remaps = sig.Remaps

		cur := st.interval
		churn := dRemaps > 0 || sig.EvictedOnPath > 0 || sig.QueueVar >= c.cfg.QueueVarThreshold
		silent := sig.Age > time.Duration(c.cfg.SilenceIntervals)*cur

		p := pending{sig: sig, st: st, desired: cur, churn: churn || silent}
		switch {
		case silent:
			// Probes stopped arriving: tighten to the floor so adjacency
			// aging sees the earliest possible re-confirmation or gets to
			// evict on schedule. Never back off a silent stream.
			p.desired = c.cfg.MinInterval
			p.reason = ReasonSilence
			st.quiet = 0
		case churn:
			p.desired = c.clamp(cur / 2)
			p.reason = ReasonTighten
			st.quiet = 0
		default:
			st.quiet++
			if st.quiet >= c.cfg.StableRounds {
				st.quiet = 0
				if next := c.clamp(cur * 2); next != cur {
					p.desired = next
					p.reason = ReasonBackoff
				}
			}
		}
		if p.churn {
			for _, d := range sig.Devices {
				churnDevs[d] = true
			}
		}
		pend = append(pend, p)
	}

	// Fan-out pass: a quiet stream sharing a device with a churning path
	// must not sit above the base cadence — the churn may be about to
	// spill onto its edges.
	if len(churnDevs) > 0 {
		for i := range pend {
			p := &pend[i]
			if p.churn || p.desired <= c.cfg.BaseInterval {
				continue
			}
			shared := false
			for _, d := range p.sig.Devices {
				if churnDevs[d] {
					shared = true
					break
				}
			}
			if shared {
				p.desired = c.cfg.BaseInterval
				p.reason = ReasonFanOut
				p.st.quiet = 0
			}
		}
	}

	// Budget pass: grow the lowest-priority intervals, in deterministic
	// (priority, origin, target) order, until the aggregate rate fits.
	rate := 0.0
	for i := range pend {
		rate += 1 / pend[i].desired.Seconds()
	}
	if cap := c.budgetCap(); cap > 0 && len(pend) > 0 {
		order := make([]int, len(pend))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			pa, pb := &pend[order[a]], &pend[order[b]]
			if pa.prio() != pb.prio() {
				return pa.prio() < pb.prio()
			}
			if pa.sig.Origin != pb.sig.Origin {
				return pa.sig.Origin < pb.sig.Origin
			}
			return pa.sig.Target < pb.sig.Target
		})
		for rate > cap {
			grew := false
			for _, i := range order {
				if rate <= cap {
					break
				}
				p := &pend[i]
				if p.desired >= c.cfg.MaxInterval {
					continue
				}
				old := 1 / p.desired.Seconds()
				p.desired = c.clamp(p.desired * 2)
				p.reason = ReasonBudget
				rate += 1/p.desired.Seconds() - old
				grew = true
			}
			if !grew {
				break
			}
		}
	}
	c.stats.ProbeRate = rate
	if cap := c.budgetCap(); cap > 0 {
		c.stats.BudgetUtilization = rate / cap
	} else {
		c.stats.BudgetUtilization = 0
	}

	// Emit directives for changed intervals, in signal (sorted) order.
	var out []Directive
	for i := range pend {
		p := &pend[i]
		if p.desired == p.st.interval {
			continue
		}
		p.st.interval = p.desired
		c.seq++
		out = append(out, Directive{
			Origin:   p.sig.Origin,
			Target:   p.sig.Target,
			Interval: p.desired,
			Reason:   p.reason,
			Seq:      c.seq,
		})
		c.stats.Directives++
		switch p.reason {
		case ReasonTighten:
			c.stats.Tightens++
		case ReasonSilence:
			c.stats.SilenceTightens++
		case ReasonFanOut:
			c.stats.FanOuts++
		case ReasonBackoff:
			c.stats.Backoffs++
		case ReasonBudget:
			c.stats.BudgetClamps++
		}
	}

	for key, st := range c.streams {
		if !st.seen {
			delete(c.streams, key)
		}
	}
	return out
}
