package experiment

import (
	"fmt"
	"time"

	"intsched/internal/collector"
	"intsched/internal/dataplane"
	"intsched/internal/netsim"
	"intsched/internal/pint"
	"intsched/internal/probe"
	"intsched/internal/simtime"
	"intsched/internal/stats"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
)

// The telemetry experiment quantifies the PINT trade: probabilistic per-hop
// insertion shrinks probes (each switch samples independently, so a probe
// carries ~p×hops records instead of all of them) while the collector
// reassembles fragments across successive probes, paying for the savings
// with telemetry freshness. Two sweeps share the mode/rate axis:
//
//   - Quality: the fault-recovery workload (same Fig 4 schedule as -exp
//     faults) replays once per telemetry configuration; the cell reports the
//     mis-schedule rate, task metrics, and an FNV-1a digest over every
//     placement decision. The p=1.0 cell must reproduce the deterministic
//     digest bit-for-bit — sampling at certainty is the identity.
//   - Overhead: a probe-only rig on the metro fabric measures encoded
//     telemetry bytes per probe at the collector, giving the bytes-on-wire
//     reduction factor each rate buys.

// TelemetryConfig shapes the telemetry experiment.
type TelemetryConfig struct {
	// Seed drives workload generation, probe-loss draws, and the per-switch
	// sampling streams.
	Seed int64
	// TaskCount is the number of tasks per quality cell (default 200, 60
	// under Smoke).
	TaskCount int
	// Rates are the probabilistic sampling rates to sweep (default 1.0,
	// 0.5, 0.25, 0.1). A deterministic baseline cell always runs first.
	Rates []float64
	// Rounds is the number of measured probe rounds per overhead cell
	// (default 20).
	Rounds int
	// Smoke shrinks the experiment to CI size: fewer tasks, two rates, and
	// a two-region metro fabric.
	Smoke bool
}

func (c *TelemetryConfig) normalize() {
	if len(c.Rates) == 0 {
		c.Rates = []float64{1.0, 0.5, 0.25, 0.1}
		if c.Smoke {
			c.Rates = []float64{1.0, 0.25}
		}
	}
	if c.Rounds <= 0 {
		c.Rounds = 20
		if c.Smoke {
			c.Rounds = 8
		}
	}
}

const (
	// telemetryQueueDelta is the value-approximation threshold of
	// probabilistic cells below full rate: a switch re-reports a port's
	// queue maximum only when it moved by more than this many packets. The
	// p=1.0 cells run with approximation off — sampling at certainty is the
	// deterministic identity, and suppression would change queue reports.
	telemetryQueueDelta = 1
	// overheadRateBps is the overhead rig's link rate. At the paper's
	// 20 Mb/s a 1024-host fleet offers its scheduler's access link six times
	// what it carries, and the cell would average over the survivors.
	overheadRateBps = 1_000_000_000
	// overheadDelivery is the share of sent probes an overhead cell must
	// ingest to count as a measurement of the fleet.
	overheadDelivery = 0.99
)

// telemetryAxis is one mode/rate point, shared by the quality and overhead
// sweeps.
type telemetryAxis struct {
	mode telemetry.Mode
	rate float64
}

func (a telemetryAxis) label() string {
	if a.mode == telemetry.ModeDeterministic {
		return "deterministic"
	}
	return fmt.Sprintf("p=%.2f", a.rate)
}

func (a telemetryAxis) queueDelta() int {
	if a.mode == telemetry.ModeProbabilistic && a.rate < 1.0 {
		return telemetryQueueDelta
	}
	return 0
}

// TelemetryCell is one quality measurement: the faults workload under one
// telemetry configuration.
type TelemetryCell struct {
	// Mode labels the cell ("deterministic" or "p=<rate>").
	Mode string `json:"mode"`
	// Rate is the sampling rate (1.0 for the deterministic baseline).
	Rate float64 `json:"rate"`
	CellSummary
	// TelemetryBytes is the encoded probe payload volume the collector
	// ingested over the run.
	TelemetryBytes uint64 `json:"telemetry_bytes"`
	// RecordsReassembled / ReassemblyCompletions count fragment merges and
	// closed reassembly cycles (zero for the deterministic baseline).
	RecordsReassembled    uint64 `json:"records_reassembled"`
	ReassemblyCompletions uint64 `json:"reassembly_completions"`
	// Digest is the run's decisionDigest.
	Digest string `json:"digest"`
}

// TelemetryOverheadCell is one bytes-on-wire measurement on the metro rig.
type TelemetryOverheadCell struct {
	Mode string  `json:"mode"`
	Rate float64 `json:"rate"`
	Topo string  `json:"topo"`
	// Probes / TelemetryBytes are the collector's ingest totals.
	Probes         uint64 `json:"probes"`
	TelemetryBytes uint64 `json:"telemetry_bytes"`
	// BytesPerProbe is the mean encoded payload size.
	BytesPerProbe float64 `json:"bytes_per_probe"`
	// Reduction is deterministic bytes-per-probe divided by this cell's
	// (1.0 for the baseline itself).
	Reduction             float64 `json:"reduction"`
	ReassemblyCompletions uint64  `json:"-"`
}

// TelemetryResult is the full experiment; it marshals to the recorded
// artifact.
type TelemetryResult struct {
	SweepHeader
	// Quality cells: deterministic first, then one per sampling rate.
	Quality []TelemetryCell `json:"quality"`
	// Overhead cells on the metro fabric, same order.
	Overhead []TelemetryOverheadCell `json:"overhead"`
}

// overheadSpec returns the overhead rig's fabric.
func overheadSpec(seed int64, smoke bool) (*TopoSpec, error) {
	cfg := MetroConfig{Seed: seed}
	if smoke {
		cfg = MetroConfig{Regions: 2, PodsPerRegion: 2, TorsPerPod: 2, ServersPerTor: 2, Seed: seed}
	}
	spec, err := MetroSpec(cfg)
	if err != nil {
		return nil, err
	}
	spec.RateBps = overheadRateBps
	return spec, nil
}

// runTelemetryOverheadCell runs the probe-only rig under one configuration:
// one prober per non-scheduler host, phases staggered across the probing
// interval so a round arrives spread out instead of as one burst, probing
// for the given number of rounds and then draining what is in flight. It
// fails unless the collector ingested nearly every probe sent.
func runTelemetryOverheadCell(spec *TopoSpec, ax telemetryAxis, seed int64, rounds int) (TelemetryOverheadCell, error) {
	engine := simtime.NewEngine()
	topo, err := spec.Build(engine)
	if err != nil {
		return TelemetryOverheadCell{}, err
	}
	intCfg := dataplane.INTConfig{QueueDeltaThreshold: ax.queueDelta()}
	if ax.mode == telemetry.ModeProbabilistic {
		intCfg.Sampler = pint.NewSampler(simtime.NewRand(seed).Stream("pint"))
	}
	dataplane.AttachINT(topo.Net, intCfg)
	domain := transport.NewDomain(topo.Net).InstallAll()
	coll := collector.New(topo.Scheduler, engine.Now, collector.Config{
		QueueWindow: 2 * FaultProbeInterval,
	})
	coll.Bind(domain.Stack(topo.Scheduler))
	devices := make([]netsim.NodeID, 0, len(topo.Hosts))
	for _, h := range topo.Hosts {
		if h != topo.Scheduler {
			probe.InstallRelay(domain.Stack(h), topo.Scheduler)
			devices = append(devices, h)
		}
	}
	probers := make([]*probe.Prober, 0, len(devices))
	for i, h := range devices {
		engine.At(time.Duration(i)*FaultProbeInterval/time.Duration(len(devices)), func() {
			pr := probe.NewProber(topo.Net, h, topo.Scheduler, FaultProbeInterval)
			if ax.mode == telemetry.ModeProbabilistic {
				pr.SetTelemetry(ax.mode, telemetry.RateToWire(ax.rate))
			}
			probers = append(probers, pr)
		})
	}
	end := time.Duration(rounds) * FaultProbeInterval
	engine.Run(end)
	var sent uint64
	for _, pr := range probers {
		pr.Stop()
		sent += pr.Sent
	}
	engine.Run(end + FaultProbeInterval)

	st := coll.Stats()
	if float64(st.ProbesReceived) < overheadDelivery*float64(sent) {
		return TelemetryOverheadCell{}, fmt.Errorf("%s: collector ingested %d of %d probes sent, below %.0f%% (bytes/probe would average the survivors)",
			spec.Name, st.ProbesReceived, sent, 100*overheadDelivery)
	}
	cell := TelemetryOverheadCell{
		Mode:                  ax.label(),
		Rate:                  ax.rate,
		Topo:                  spec.Name,
		Probes:                st.ProbesReceived,
		TelemetryBytes:        st.TelemetryBytes,
		ReassemblyCompletions: st.ReassemblyCompletions,
	}
	if st.ProbesReceived > 0 {
		cell.BytesPerProbe = float64(st.TelemetryBytes) / float64(st.ProbesReceived)
	}
	return cell, nil
}

// Telemetry sweeps telemetry configurations over the quality and overhead
// rigs and verifies the identity contract: probabilistic sampling at p=1.0
// must reproduce the deterministic baseline's decision digest exactly.
func (p *Pool) Telemetry(cfg TelemetryConfig) (*TelemetryResult, error) {
	cfg.normalize()
	res := &TelemetryResult{SweepHeader: newSweepHeader("telemetry", cfg.Seed, cfg.TaskCount, cfg.Smoke)}

	axis := []telemetryAxis{{telemetry.ModeDeterministic, 1.0}}
	for _, r := range cfg.Rates {
		axis = append(axis, telemetryAxis{telemetry.ModeProbabilistic, r})
	}

	// Quality cells replay the faults workload, so degraded telemetry has
	// failures to mis-schedule around.
	runs, err := p.replay(res.scenario(), len(axis), func(i int, sc *Scenario) {
		sc.TelemetryMode = axis[i].mode
		sc.SampleRate = axis[i].rate
		sc.QueueDeltaThreshold = axis[i].queueDelta()
	})
	if err != nil {
		return nil, err
	}
	res.Quality = make([]TelemetryCell, len(runs))
	for i, run := range runs {
		res.Quality[i] = TelemetryCell{
			Mode:                  axis[i].label(),
			Rate:                  axis[i].rate,
			CellSummary:           summarize(run),
			TelemetryBytes:        run.TelemetryBytes,
			RecordsReassembled:    run.RecordsReassembled,
			ReassemblyCompletions: run.ReassemblyCompletions,
			Digest:                decisionDigest(run),
		}
	}

	// Identity contract: p=1.0 samples every hop of every probe with value
	// approximation off, so its run must be indistinguishable from the
	// deterministic baseline.
	for _, cell := range res.Quality {
		if cell.Mode == "p=1.00" && cell.Digest != res.Quality[0].Digest {
			return nil, fmt.Errorf("telemetry: p=1.0 digest %s != deterministic %s (sampling at certainty changed scheduling)",
				cell.Digest, res.Quality[0].Digest)
		}
	}

	// Overhead cells on the metro fabric.
	spec, err := overheadSpec(res.Seed, cfg.Smoke)
	if err != nil {
		return nil, err
	}
	res.Overhead = make([]TelemetryOverheadCell, len(axis))
	err = p.run(len(axis), func(i int) error {
		cell, err := runTelemetryOverheadCell(spec, axis[i], res.Seed, cfg.Rounds)
		if err != nil {
			return fmt.Errorf("telemetry %s: %w", axis[i].label(), err)
		}
		res.Overhead[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range res.Overhead {
		if res.Overhead[i].BytesPerProbe > 0 {
			res.Overhead[i].Reduction = res.Overhead[0].BytesPerProbe / res.Overhead[i].BytesPerProbe
		}
	}
	return res, nil
}

// QualityTable renders the scheduling-quality sweep. DeltaMis columns are
// percentage-point differences from the deterministic baseline.
func (r *TelemetryResult) QualityTable() string {
	tb := stats.NewTable("telemetry", "decisions", "mis", "mis %", "Δ vs det (pp)",
		"mean completion", "incomplete", "probe bytes", "reassembled", "cycles", "digest")
	base := r.Quality[0].MisPct
	for _, c := range r.Quality {
		tb.AddRow(c.Mode, c.Decisions, c.Mis, fmt.Sprintf("%.2f", c.MisPct),
			fmt.Sprintf("%+.2f", c.MisPct-base),
			time.Duration(c.MeanCompletion).Round(time.Millisecond), c.Incomplete,
			c.TelemetryBytes, c.RecordsReassembled, c.ReassemblyCompletions, c.Digest)
	}
	return tb.String()
}

// OverheadTable renders the bytes-on-wire sweep.
func (r *TelemetryResult) OverheadTable() string {
	tb := stats.NewTable("telemetry", "topology", "probes", "probe bytes", "bytes/probe", "reduction", "cycles")
	for _, c := range r.Overhead {
		tb.AddRow(c.Mode, c.Topo, c.Probes, c.TelemetryBytes,
			fmt.Sprintf("%.1f", c.BytesPerProbe), fmt.Sprintf("%.2fx", c.Reduction),
			c.ReassemblyCompletions)
	}
	return tb.String()
}
