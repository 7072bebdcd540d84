package main

import (
	"time"

	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/experiment"
	"intsched/internal/simtime"
	tasks "intsched/internal/workload"
)

// simPaper regenerates the paper's comparison on the Fig 4 network: the
// INT-fed scheduler against Nearest, serverless by delay and distributed by
// bandwidth, under random background traffic, ten tasks a scenario. It is
// what the figure experiments spend their time on, and the simulator layers
// (simtime, netsim, dataplane, transport, edge) do nearly all of its work.
// An operation is one simulated second.
type simPaper struct {
	seed int64
	size sizes

	// warmed is the product of the last set-up build: Fig 4 networks with
	// a collector that has learned them, the state every scenario starts
	// from.
	warmed []*collector.Collector

	sample []uint32
	// fastest holds, per scenario of the lap, the quickest run of it so
	// far in this window.
	fastest [len(lapScenarios)]time.Duration
	results [len(lapScenarios)]*experiment.RunResult
}

// lapScenario is one simulation of the lap.
type lapScenario struct {
	kind   tasks.Kind
	metric core.Metric
}

// lapScenarios are the four simulations a lap runs, in pairs that replay
// the same tasks and traffic under the network-aware metric and under
// Nearest.
var lapScenarios = [...]lapScenario{
	{tasks.Serverless, core.MetricDelay},
	{tasks.Serverless, core.MetricNearest},
	{tasks.Distributed, core.MetricBandwidth},
	{tasks.Distributed, core.MetricNearest},
}

const (
	// scenarioSeed fixes the tasks and the background traffic of the lap.
	// How much traffic a scenario seed draws moves the cost of a simulated
	// second by ±12 % from one seed to the next (measured over seeds 1–14),
	// which would bury any code change, so every run simulates the same
	// scenarios and the benchmark's seed only chooses which of them a lap
	// starts with. On this seed, at the full size's ten tasks, every task
	// completes and the network-aware scheduler beats Nearest by 11 %
	// (serverless, delay) and 16 % (distributed, bandwidth).
	scenarioSeed = 7
	// secondsPerLap sizes the window: one lap for every this many seconds
	// asked for. A lap takes about a second and a half on a quiet host;
	// short laps, many times over, are what lets each scenario find a
	// quiet moment of a busy host.
	secondsPerLap = 2
)

func (s *simPaper) prepare() error {
	s.sample = make([]uint32, len(lapScenarios))
	return nil
}

func (s *simPaper) build() (time.Duration, error) {
	t0 := time.Now()
	warmed := make([]*collector.Collector, 0, s.size.simSetupNets)
	for i := 0; i < s.size.simSetupNets; i++ {
		topo, err := experiment.BuildFig4(simtime.NewEngine(), experiment.LinkParams{})
		if err != nil {
			return 0, err
		}
		coll, err := experiment.WarmCollector(topo, 2*time.Second)
		if err != nil {
			return 0, err
		}
		warmed = append(warmed, coll)
	}
	s.warmed = warmed
	return time.Since(t0), nil
}

func (s *simPaper) warm() error { return nil }

// measure runs the lap as many times as d asks for and charges each
// scenario its fastest run: the simulations are deterministic, so the laps
// differ only in what else the host was doing. The window's operations are
// one lap's simulated seconds, its elapsed time the sum of the fastest
// runs, and its samples each scenario's cost per simulated second.
func (s *simPaper) measure(d time.Duration, tr *tracer) (window, error) {
	var w window
	laps := max(1, int(d.Seconds()/secondsPerLap))
	first := int(s.seed % int64(len(lapScenarios)))
	if first < 0 {
		first += len(lapScenarios)
	}
	s.fastest = [len(lapScenarios)]time.Duration{}
	start := time.Now()
	for lap := 0; lap < laps; lap++ {
		for n := range lapScenarios {
			i := (first + n) % len(lapScenarios)
			sc := experiment.Scenario{
				Seed:       scenarioSeed,
				Workload:   lapScenarios[i].kind,
				Metric:     lapScenarios[i].metric,
				TaskCount:  s.size.simTasks,
				Background: experiment.BackgroundRandom,
			}
			t0 := time.Now()
			id := tr.begin(callRun, lap)
			run, err := experiment.Run(sc)
			tr.end(id)
			if err != nil {
				return w, err
			}
			if wall := time.Since(t0); s.fastest[i] == 0 || wall < s.fastest[i] {
				s.fastest[i] = wall
			}
			s.results[i] = run
			w.attempted += len(run.Results) + run.Incomplete
			w.failed += run.Incomplete
		}
	}
	for i, run := range s.results {
		simSeconds := run.VirtualDuration.Seconds()
		w.ops += simSeconds
		w.elapsed += s.fastest[i]
		s.sample[i] = clampNs(time.Duration(float64(s.fastest[i]) / simSeconds))
	}
	w.samples = s.sample
	w.wall, w.repeats = time.Since(start), laps
	return w, nil
}

// gain is the completion-time gain of scenario i over the Nearest run that
// follows it in the lap.
func (s *simPaper) gain(i int) float64 {
	cmp := experiment.Comparison{Runs: map[core.Metric]*experiment.RunResult{
		lapScenarios[i].metric: s.results[i],
		core.MetricNearest:     s.results[i+1],
	}}
	return cmp.OverallGain(lapScenarios[i].metric, core.MetricNearest, false)
}

func (s *simPaper) verify(r *report) {
	var received, sent uint64
	for i, run := range s.results {
		r.check("every task completed", run.Incomplete == 0, 0, run.Incomplete)
		r.check("scenario ran its task count", len(run.Results)+run.Incomplete >= s.size.simTasks,
			s.size.simTasks, len(run.Results)+run.Incomplete)
		if i%2 == 1 {
			r.check("both arms of a comparison ran the same tasks",
				len(run.Results)+run.Incomplete == len(s.results[i-1].Results)+s.results[i-1].Incomplete,
				len(s.results[i-1].Results), len(run.Results))
		}
		received += run.ProbesReceived
		sent += run.ProbesSent
	}
	r.check("probes reached the collector", received > 0 && received <= sent, "0 < received <= sent", received)
	if s.size.simTasks == fullSize.simTasks {
		// scenarioSeed was chosen at this task count; a toy run's few
		// tasks say nothing about scheduling quality.
		r.check("delay-aware scheduling beats Nearest (serverless)", s.gain(0) > 0, "> 0", s.gain(0))
		r.check("bandwidth-aware scheduling beats Nearest (distributed)", s.gain(2) > 0, "> 0", s.gain(2))
	}
	hosts := len(s.warmed[0].Snapshot().Hosts())
	r.check("set-up collectors learned the network", hosts == 8, 8, hosts)
}

func (s *simPaper) layers(r *report, plain summary) error {
	var events, sent, received, dropped uint64
	var simSeconds float64
	var wall time.Duration
	for i, run := range s.results {
		events += run.EventsProcessed
		sent += run.ProbesSent
		received += run.ProbesReceived
		dropped += run.PacketsDropped
		simSeconds += run.VirtualDuration.Seconds()
		wall += s.fastest[i]
	}
	r.set("sim.events_per_sim_s", float64(events)/simSeconds, int(events))
	r.set("sim.wall_ns_per_event", float64(wall.Nanoseconds())/float64(events), int(events))
	r.set("sim.probes_sent", float64(sent), 1)
	r.set("sim.probes_received", float64(received), 1)
	r.set("sim.packets_dropped", float64(dropped), 1)
	r.set("sim.gain_serverless_delay", s.gain(0), s.size.simTasks)
	r.set("sim.gain_distributed_bw", s.gain(2), s.size.simTasks)
	return nil
}

// fixture is a short Clos trace: sim_paper itself runs on the Fig 4 network
// and keeps no probe payloads, but the layer probes need real ones.
func (s *simPaper) fixture() (*probeTrace, error) {
	spec, err := experiment.ClosSpec(experiment.ClosConfig{Seed: s.seed, Pods: s.size.closPods})
	if err != nil {
		return nil, err
	}
	return generateTrace(spec, probeRounds)
}

func (s *simPaper) close() {}
