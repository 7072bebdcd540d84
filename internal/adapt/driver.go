package adapt

import (
	"intsched/internal/collector"
	"intsched/internal/probe"
	"intsched/internal/simtime"
)

// SimDriver runs the control loop inside the simulator: a sim-time ticker
// at the controller's evaluation interval reads the collector's stream
// signals, runs Decide, and applies the resulting directives to the probe
// fleet's per-stream tickers. Everything happens on the engine's
// single-threaded event loop, so a fixed seed replays identical controller
// decisions regardless of how the experiment pool schedules scenarios.
type SimDriver struct {
	ctrl    *Controller
	coll    *collector.Collector
	fleet   *probe.Fleet
	ticker  *simtime.Ticker
	applied uint64
}

// NewSimDriver starts the control loop on eng. The first evaluation fires
// after one EvalInterval, so the fleet warms up at its configured static
// cadence.
func NewSimDriver(eng *simtime.Engine, ctrl *Controller, coll *collector.Collector, fleet *probe.Fleet) *SimDriver {
	d := &SimDriver{ctrl: ctrl, coll: coll, fleet: fleet}
	d.ticker = eng.NewTicker(ctrl.Config().EvalInterval, d.tick)
	return d
}

func (d *SimDriver) tick() {
	for _, dir := range d.ctrl.Decide(SignalsFrom(d.coll)) {
		if d.fleet.SetStreamInterval(dir.Origin, dir.Target, dir.Interval) {
			d.applied++
		}
	}
}

// Controller returns the driven controller.
func (d *SimDriver) Controller() *Controller { return d.ctrl }

// Applied returns how many directives reached a fleet prober.
func (d *SimDriver) Applied() uint64 { return d.applied }

// Stop halts the control loop.
func (d *SimDriver) Stop() { d.ticker.Stop() }

// SignalsFrom converts the collector's per-stream signal snapshot into
// controller signals, preserving its (origin, target) sort order.
func SignalsFrom(coll *collector.Collector) []Signal {
	raw := coll.StreamSignals()
	out := make([]Signal, len(raw))
	for i := range raw {
		out[i] = Signal{
			Origin:        raw[i].Origin,
			Target:        raw[i].Target,
			Age:           raw[i].Age,
			Remaps:        raw[i].Remaps,
			Devices:       raw[i].Devices,
			QueueVar:      raw[i].QueueVar,
			EvictedOnPath: raw[i].EvictedOnPath,
		}
	}
	return out
}
