package experiment

import (
	"sort"
	"time"

	"intsched/internal/adapt"
	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/dataplane"
	"intsched/internal/edge"
	"intsched/internal/fault"
	"intsched/internal/netsim"
	"intsched/internal/probe"
	"intsched/internal/simtime"
	"intsched/internal/traffic"
	"intsched/internal/transport"
	"intsched/internal/workload"
)

// BackgroundKind selects the congestion pattern injected during a scenario.
type BackgroundKind uint8

const (
	// BackgroundNone runs without congestion.
	BackgroundNone BackgroundKind = iota
	// BackgroundRandom is the main experiments' pattern: one or two iperf
	// flows between random nodes, 30 s or 60 s each.
	BackgroundRandom
	// BackgroundTraffic1 is Fig 9's infrequently changing pattern.
	BackgroundTraffic1
	// BackgroundTraffic2 is Fig 9's frequently changing pattern.
	BackgroundTraffic2
)

func (b BackgroundKind) String() string {
	switch b {
	case BackgroundNone:
		return "none"
	case BackgroundRandom:
		return "random"
	case BackgroundTraffic1:
		return "traffic1"
	case BackgroundTraffic2:
		return "traffic2"
	}
	return "unknown"
}

// Scenario fully describes one experiment run. The zero value is not
// runnable; use the field comments' defaults.
type Scenario struct {
	// Seed drives every random stream (workload, traffic, random ranking).
	Seed int64
	// Workload is serverless (1 task/job) or distributed (3 tasks/job).
	Workload workload.Kind
	// Metric is the scheduling strategy under test.
	Metric core.Metric
	// TaskCount is the number of tasks (paper: 200). Default 200.
	TaskCount int
	// Classes restricts task classes (nil = all four).
	Classes []workload.Class
	// MeanInterarrival is the mean job inter-arrival time (default 5 s).
	MeanInterarrival time.Duration
	// ProbeInterval is the INT probing period (default 100 ms).
	ProbeInterval time.Duration
	// PerPacketINT switches telemetry collection to classic per-packet
	// INT embedding (the approach the paper argues against): switches
	// append records to every data packet, destination hosts extract the
	// stacks and export them to the scheduler at ProbeInterval cadence,
	// and no probe packets run. Production packets grow on the wire and
	// only paths carrying task traffic are observed.
	PerPacketINT bool
	// SchedulerOnlyProbes restricts probing to the paper's literal setup
	// (every edge server probes the scheduler), leaving links off those
	// paths unobserved. The default (false) uses the coverage planner —
	// the paper's probe-route-optimization future work — so every link is
	// visited by some probe, which the paper assumes.
	SchedulerOnlyProbes bool
	// Background selects the congestion pattern (the zero value runs
	// without congestion; the paper's main experiments use
	// BackgroundRandom).
	Background BackgroundKind
	// Traffic tunes background flows.
	Traffic traffic.Config
	// Links sets the uniform link parameters (paper defaults when zero).
	Links LinkParams
	// Topo overrides the network topology (the paper's Fig 4 when nil).
	// When set, its link parameters take precedence over Links.
	Topo *TopoSpec
	// K is the queue→latency conversion factor (core.DefaultK when zero).
	K time.Duration
	// Slots bounds concurrent task executions per server (0 = unlimited).
	Slots int
	// ClockSkew applies the given skew to odd-numbered switches' clocks
	// (robustness ablation; zero = perfectly synced NTP).
	ClockSkew time.Duration
	// Faults is the failure schedule injected during the run. Event start
	// times are relative to the end of the collector warmup (the epoch of
	// the first possible job submission), so a schedule composes with any
	// ProbeInterval without re-tuning.
	Faults []fault.Event
	// ExcludeUnreachable enables the scheduler's fault-recovery policy:
	// candidates whose learned path is gone are dropped from responses.
	ExcludeUnreachable bool
	// RecordDecisions captures every placement decision at the moment it is
	// made, classified against the simulator's ground-truth routing state
	// (RunResult.Decisions). Needed by the fault experiments to measure
	// mis-scheduling and recovery; off by default to keep hot runs lean.
	RecordDecisions bool
	// Adaptive enables the adaptive probing control loop (internal/adapt):
	// a sim-time controller re-reads the collector's churn signals every
	// 5×ProbeInterval and retunes each probe stream's cadence within
	// [ProbeInterval/4, 4×ProbeInterval]. Off by default; disabled runs
	// schedule exactly the same events as the pre-adaptive simulator.
	Adaptive bool
	// ProbeBudget caps the adaptive fleet's aggregate probe rate, as a
	// fraction in (0, 1] of the static full-cadence rate (streams /
	// ProbeInterval). Zero means uncapped; a non-zero budget requires
	// Adaptive.
	ProbeBudget float64
}

func (s Scenario) withDefaults() Scenario {
	if s.TaskCount <= 0 {
		s.TaskCount = 200
	}
	if s.MeanInterarrival <= 0 {
		s.MeanInterarrival = workload.DefaultInterarrival
	}
	if s.ProbeInterval <= 0 {
		s.ProbeInterval = probe.DefaultInterval
	}
	s.Links = s.Links.withDefaults()
	if s.K <= 0 {
		s.K = core.DefaultK
	}
	return s
}

// warmup returns how long to run probing before the first job so the
// collector has a complete network view (at least two probe rounds).
func (s Scenario) warmup() time.Duration {
	w := 2 * s.ProbeInterval
	if w < 2*time.Second {
		w = 2 * time.Second
	}
	return w
}

// Decision records one placement decision at the moment it was made.
type Decision struct {
	// At is the virtual time of the decision (the ranking response).
	At time.Duration
	// TaskID identifies the task being placed.
	TaskID uint64
	// Device submitted the task; Server is the chosen placement.
	Device, Server netsim.NodeID
	// Usable reports whether the network could actually deliver traffic
	// from Device to Server at decision time — ground truth from the
	// simulator's routing state, not the collector's learned view. A
	// decision with Usable == false is a mis-scheduling.
	Usable bool
}

// RunResult is the outcome of one scenario run.
type RunResult struct {
	Scenario Scenario
	// Results holds one entry per completed task, ordered by TaskID.
	Results []edge.TaskResult
	// Decisions holds one entry per placement decision, ordered by
	// (At, TaskID). Populated only when Scenario.RecordDecisions is set.
	Decisions []Decision
	// Incomplete counts tasks that had not finished by the horizon.
	Incomplete int
	// VirtualDuration is the virtual time consumed.
	VirtualDuration time.Duration
	// ProbesSent / ProbesReceived measure telemetry delivery.
	ProbesSent     uint64
	ProbesReceived uint64
	// PacketsDropped counts network-wide drops (congestion losses).
	PacketsDropped uint64
	// INTOverheadBytes counts telemetry bytes added to production packets
	// (zero with register staging; the per-packet ablation pays this).
	INTOverheadBytes uint64
	// EventsProcessed counts simulator events (performance diagnostics).
	EventsProcessed uint64
	// FaultStats summarizes the fault timeline (zero without faults).
	FaultStats fault.Stats
	// AdjacencyEvictions / PathRemaps count the collector's live re-mapping
	// activity (edges aged out on probe silence; streams whose hop sequence
	// changed).
	AdjacencyEvictions uint64
	PathRemaps         uint64
	// TelemetryBytes counts encoded probe payload bytes arriving at the
	// collector — the fleet's telemetry spend.
	TelemetryBytes uint64
	// Adaptive-controller activity (all zero when Scenario.Adaptive is
	// off): directives applied to fleet probers and the controller's
	// per-rule decision counts.
	DirectivesApplied uint64
	CadenceTightens   uint64
	SilenceTightens   uint64
	CadenceBackoffs   uint64
	BudgetClamps      uint64
	// EvictionSilences records each adjacency eviction's probe silence —
	// the per-edge fault-detection latency — in eviction order. Populated
	// when RecordDecisions or Adaptive is set.
	EvictionSilences []time.Duration
}

// MaxEvictionSilence returns the largest probe silence among recorded
// adjacency evictions — the worst-case fault-detection latency of the run
// (zero when no eviction was recorded).
func (r *RunResult) MaxEvictionSilence() time.Duration {
	var max time.Duration
	for _, s := range r.EvictionSilences {
		if s > max {
			max = s
		}
	}
	return max
}

// MisScheduled counts decisions whose placement was unusable when made.
func (r *RunResult) MisScheduled() int {
	n := 0
	for i := range r.Decisions {
		if !r.Decisions[i].Usable {
			n++
		}
	}
	return n
}

// MeanCompletion returns the mean task completion time across all tasks.
func (r *RunResult) MeanCompletion() time.Duration {
	if len(r.Results) == 0 {
		return 0
	}
	var sum time.Duration
	for i := range r.Results {
		sum += r.Results[i].CompletionTime()
	}
	return sum / time.Duration(len(r.Results))
}

// MeanTransfer returns the mean data transfer time across all tasks.
func (r *RunResult) MeanTransfer() time.Duration {
	if len(r.Results) == 0 {
		return 0
	}
	var sum time.Duration
	for i := range r.Results {
		sum += r.Results[i].TransferTime()
	}
	return sum / time.Duration(len(r.Results))
}

// Run executes one scenario to completion and returns its results.
func Run(sc Scenario) (*RunResult, error) {
	if err := adapt.CheckBudget(sc.ProbeBudget, sc.Adaptive); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()
	engine := simtime.NewEngine()
	rng := simtime.NewRand(sc.Seed)

	var topo *Topology
	var err error
	if sc.Topo != nil {
		topo, err = sc.Topo.Build(engine)
	} else {
		topo, err = BuildFig4(engine, sc.Links)
	}
	if err != nil {
		return nil, err
	}
	nw := topo.Net

	// Dataplane: INT register staging on every switch (or classic
	// per-packet embedding in the ablation mode).
	intCfg := dataplane.INTConfig{PerPacket: sc.PerPacketINT}
	programs := dataplane.AttachINT(nw, intCfg)
	if sc.ClockSkew != 0 {
		i := 0
		for _, id := range nw.Switches() {
			if i%2 == 1 {
				sw := nw.Node(id)
				cfg := intCfg
				cfg.ClockSkew = sc.ClockSkew
				prog := dataplane.NewINTProgram(string(id), len(sw.Ports), cfg)
				sw.Processor = prog
				programs[id] = prog
			}
			i++
		}
	}

	// Transport stacks on every host.
	domain := transport.NewDomain(nw).InstallAll()

	// Collector + scheduler service on the scheduler host.
	linkRate := sc.Links.RateBps
	if sc.Topo != nil {
		linkRate = sc.Topo.params().RateBps
	}
	collCfg := collector.Config{
		QueueWindow:        2 * sc.ProbeInterval,
		DefaultLinkRateBps: linkRate,
	}
	if sc.PerPacketINT {
		// Classic INT only observes paths that carry traffic, so streams go
		// silent for long stretches without anything having failed; probe-
		// silence aging would evict live links.
		collCfg.AdjacencyTTL = collector.NoAdjacencyAging
	}
	coll := collector.New(topo.Scheduler, engine.Now, collCfg)
	coll.Bind(domain.Stack(topo.Scheduler))

	// Edge nodes (device + server roles) on every host. The scheduler
	// host gets its edge node first so the service can chain its control
	// handling in front of it.
	nodes := make(map[netsim.NodeID]*edge.Node, len(topo.Hosts))
	for _, h := range topo.Hosts {
		n := edge.NewNode(domain.Stack(h), topo.Scheduler)
		n.Slots = sc.Slots
		nodes[h] = n
	}

	service := core.NewService(domain.Stack(topo.Scheduler), coll, core.ServiceConfig{
		ExcludeUnreachable: sc.ExcludeUnreachable,
	})
	service.Register(&core.DelayRanker{K: sc.K})
	service.Register(&core.BandwidthRanker{})
	service.Register(&core.TransferTimeRanker{
		Delay:     &core.DelayRanker{K: sc.K},
		Bandwidth: &core.BandwidthRanker{},
	})
	nearest, err := core.NewNearestRanker(nw, topo.Hosts)
	if err != nil {
		return nil, err
	}
	service.Register(nearest)
	service.Register(core.NewRandomRanker(rng))

	// Probing fleet. By default, probe routes are planned for full link
	// coverage and non-scheduler sinks relay INT reports to the
	// collector; SchedulerOnlyProbes reproduces the paper's literal
	// server→scheduler probing instead.
	var fleet *probe.Fleet
	if sc.PerPacketINT {
		// Classic INT: no probes; destination hosts are INT sinks that
		// export embedded stacks to the scheduler, rate-limited to the
		// probing cadence per (source, sink) pair.
		for _, h := range topo.Hosts {
			stack := domain.Stack(h)
			sink := h
			lastExport := make(map[netsim.NodeID]time.Duration)
			stack.INTSink = func(pkt *netsim.Packet) {
				if now := engine.Now(); now-lastExport[pkt.Src] >= sc.ProbeInterval {
					lastExport[pkt.Src] = now
					if sink == topo.Scheduler {
						coll.HandleProbe(pkt.Probe)
					} else {
						stack.SendControl(topo.Scheduler, 64+36*len(pkt.Probe.Stack.Records), pkt.Probe)
					}
				}
			}
		}
	} else if sc.SchedulerOnlyProbes {
		fleet = probe.NewFleet(nw, topo.Hosts, topo.Scheduler, sc.ProbeInterval)
	} else {
		pairs, _, err := probe.PlanCoverage(nw.PathBetween, topo.Hosts, topo.Scheduler)
		if err != nil {
			return nil, err
		}
		for _, h := range topo.Hosts {
			if h != topo.Scheduler {
				probe.InstallRelay(domain.Stack(h), topo.Scheduler)
			}
		}
		fleet = probe.NewPlannedFleet(nw, pairs, sc.ProbeInterval)
	}

	// Adaptive probing control loop: a sim-time driver on the engine's own
	// event loop, so controller decisions replay identically per seed. The
	// budget fraction is anchored to the static full-cadence rate of this
	// fleet, making budgets comparable across topologies.
	var adriver *adapt.SimDriver
	if sc.Adaptive && fleet != nil {
		acfg := adapt.Config{BaseInterval: sc.ProbeInterval}
		if sc.ProbeBudget > 0 {
			acfg.MaxProbesPerSec = sc.ProbeBudget * float64(len(fleet.Probers())) / sc.ProbeInterval.Seconds()
		}
		adriver = adapt.NewSimDriver(engine, adapt.NewController(acfg), coll, fleet)
	}

	// Background traffic.
	var bg *traffic.Background
	switch sc.Background {
	case BackgroundRandom:
		bg = traffic.StartRandom(domain, topo.Hosts, rng, sc.Traffic)
	case BackgroundTraffic1:
		cfg := traffic.Traffic1()
		cfg.Traffic = sc.Traffic
		bg = traffic.StartPattern(domain, topo.Hosts, rng, cfg)
	case BackgroundTraffic2:
		cfg := traffic.Traffic2()
		cfg.Traffic = sc.Traffic
		bg = traffic.StartPattern(domain, topo.Hosts, rng, cfg)
	}

	// Workload.
	jobs, err := workload.Generate(workload.GenConfig{
		Kind:             sc.Workload,
		TaskCount:        sc.TaskCount,
		Devices:          topo.Hosts,
		MeanInterarrival: sc.MeanInterarrival,
		Classes:          sc.Classes,
	}, rng)
	if err != nil {
		return nil, err
	}
	totalTasks := workload.TotalTasks(jobs)

	// Result collection across all devices.
	out := &RunResult{Scenario: sc}
	done := 0
	for _, n := range nodes {
		n.OnResult = func(res edge.TaskResult) {
			out.Results = append(out.Results, res)
			done++
			if done == totalTasks {
				engine.Stop()
			}
		}
		if sc.RecordDecisions {
			n.OnDecision = func(res edge.TaskResult) {
				out.Decisions = append(out.Decisions, Decision{
					At:     res.RankedAt,
					TaskID: res.TaskID,
					Device: res.Device,
					Server: res.Server,
					Usable: nw.PathUsable(res.Device, res.Server),
				})
			}
		}
	}
	if sc.RecordDecisions || sc.Adaptive {
		// Record per-eviction probe silence (detection latency). The hook
		// only appends to the result — it cannot perturb the simulation, so
		// recording runs stay byte-identical to non-recording ones.
		coll.SetEvictionHook(func(from, to string, silence time.Duration) {
			out.EvictionSilences = append(out.EvictionSilences, silence)
		})
	}

	// Per-packet INT has no probes: seed initial visibility with small
	// staggered warmup transfers between all host pairs (classic INT can
	// only observe paths that carry traffic).
	if sc.PerPacketINT {
		i := 0
		for _, a := range topo.Hosts {
			for _, b := range topo.Hosts {
				if a == b {
					continue
				}
				src, dst := a, b
				engine.At(time.Duration(i)*30*time.Millisecond, func() {
					domain.Stack(src).Transfer(dst, 50_000, nil)
				})
				i++
			}
		}
	}

	// Schedule job submissions after the warmup.
	warm := sc.warmup()

	// Fault timeline: event times are authored relative to the end of the
	// warmup, so shift them onto the engine's absolute clock here. The RNG
	// is a named sub-stream so fault randomness (probe-loss draws) never
	// perturbs the workload/traffic streams.
	var timeline *fault.Timeline
	if len(sc.Faults) > 0 {
		shifted := make([]fault.Event, len(sc.Faults))
		for i, ev := range sc.Faults {
			ev.At += warm
			shifted[i] = ev
		}
		timeline, err = fault.NewTimeline(nw, shifted, rng.Stream("fault"), fault.Options{})
		if err != nil {
			return nil, err
		}
		timeline.Start()
	}
	var lastSubmit time.Duration
	for _, job := range jobs {
		j := job
		at := warm + j.SubmitAt
		if at > lastSubmit {
			lastSubmit = at
		}
		engine.At(at, func() {
			nodes[j.Device].SubmitJob(j, sc.Metric, nil)
		})
	}

	// Horizon: generous slack beyond the last submission; tasks are at
	// most ~10 s exec + transfers, so 10 min of slack is ample even under
	// heavy congestion.
	horizon := lastSubmit + 10*time.Minute
	engine.Run(horizon)

	if bg != nil {
		bg.Stop()
	}
	if fleet != nil {
		fleet.Stop()
		out.ProbesSent = fleet.TotalSent()
	}
	if adriver != nil {
		adriver.Stop()
		st := adriver.Controller().Stats()
		out.DirectivesApplied = adriver.Applied()
		out.CadenceTightens = st.Tightens
		out.SilenceTightens = st.SilenceTightens
		out.CadenceBackoffs = st.Backoffs
		out.BudgetClamps = st.BudgetClamps
	}

	out.Incomplete = totalTasks - done
	out.VirtualDuration = engine.Now()
	if timeline != nil {
		out.FaultStats = timeline.Stats()
	}
	collStats := coll.Stats()
	out.AdjacencyEvictions = collStats.AdjacencyEvictions
	out.PathRemaps = collStats.PathRemaps
	out.ProbesReceived = collStats.ProbesReceived
	out.TelemetryBytes = collStats.TelemetryBytes
	out.PacketsDropped = nw.Dropped
	out.EventsProcessed = engine.Processed
	for _, prog := range programs {
		out.INTOverheadBytes += prog.OverheadBytes
	}

	sortResults(out.Results)
	sort.Slice(out.Decisions, func(i, j int) bool {
		a, b := &out.Decisions[i], &out.Decisions[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.TaskID < b.TaskID
	})
	return out, nil
}

func sortResults(rs []edge.TaskResult) {
	// TaskIDs are unique within a run, so sort.Slice's unstable order is
	// still deterministic.
	sort.Slice(rs, func(i, j int) bool { return rs[i].TaskID < rs[j].TaskID })
}
