package experiment

import (
	"fmt"
	"time"

	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/dataplane"
	"intsched/internal/netsim"
	"intsched/internal/obs"
	"intsched/internal/probe"
	"intsched/internal/simtime"
	"intsched/internal/transport"
	"intsched/internal/wallclock"
)

// QPSConfig shapes the scheduler query-throughput experiment: a Fig 4
// deployment with the probe fleet churning telemetry at ProbeInterval while
// the scheduler answers QueriesPerProbe ranking queries per probe cadence
// tick.
type QPSConfig struct {
	// Queries is the total number of ranking queries (default 50_000).
	Queries int
	// QueriesPerProbe is the query:probe ratio; one simulated probe
	// cadence tick runs after this many queries (default 100).
	QueriesPerProbe int
	// ProbeInterval is the fleet's probing cadence (default 100 ms, the
	// paper's fastest setting).
	ProbeInterval time.Duration
	// Warm is the initial probing phase before measurement (default 2 s).
	Warm time.Duration
}

func (c *QPSConfig) normalize() {
	if c.Queries <= 0 {
		c.Queries = 50_000
	}
	if c.QueriesPerProbe <= 0 {
		c.QueriesPerProbe = 100
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.Warm <= 0 {
		c.Warm = 2 * time.Second
	}
}

// QueryRig is a warmed Fig 4 deployment ready to serve ranking queries
// while its probe fleet keeps running: the fixture behind the QPS
// experiment and BenchmarkSchedulerQueryThroughput.
type QueryRig struct {
	Engine  *simtime.Engine
	Coll    *collector.Collector
	Svc     *core.Service
	Devices []netsim.NodeID
	// Reg is the rig's metrics registry: the service's rank-cache counters
	// and per-metric query-latency histograms, the same series the live
	// daemon exposes over /metrics.
	Reg *obs.Registry

	probeInterval time.Duration
}

// NewQueryRig builds the deployment.
func NewQueryRig(cfg QPSConfig) (*QueryRig, error) {
	cfg.normalize()
	engine := simtime.NewEngine()
	topo, err := BuildFig4(engine, LinkParams{})
	if err != nil {
		return nil, err
	}
	dataplane.AttachINT(topo.Net, dataplane.INTConfig{})
	domain := transport.NewDomain(topo.Net).InstallAll()
	coll := collector.New(topo.Scheduler, engine.Now, collector.Config{
		QueueWindow: time.Second,
	})
	coll.Bind(domain.Stack(topo.Scheduler))
	svc := core.NewService(domain.Stack(topo.Scheduler), coll, core.ServiceConfig{})
	svc.Register(&core.DelayRanker{})
	svc.Register(&core.BandwidthRanker{})
	reg := obs.NewRegistry()
	svc.Instrument(reg)
	pairs, _, err := probe.PlanCoverage(topo.Net.PathBetween, topo.Hosts, topo.Scheduler)
	if err != nil {
		return nil, err
	}
	var devices []netsim.NodeID
	for _, h := range topo.Hosts {
		if h != topo.Scheduler {
			probe.InstallRelay(domain.Stack(h), topo.Scheduler)
			devices = append(devices, h)
		}
	}
	probe.NewPlannedFleet(topo.Net, pairs, cfg.ProbeInterval)
	engine.Run(engine.Now() + cfg.Warm)
	return &QueryRig{
		Engine:        engine,
		Coll:          coll,
		Svc:           svc,
		Devices:       devices,
		Reg:           reg,
		probeInterval: cfg.ProbeInterval,
	}, nil
}

// Tick advances the simulation by one probe cadence, delivering a fresh
// round of INT probes to the collector.
func (r *QueryRig) Tick() {
	r.Engine.Run(r.Engine.Now() + r.probeInterval)
}

// Query issues the i-th ranking query, rotating requesters and alternating
// between the delay and bandwidth metrics.
func (r *QueryRig) Query(i int) []core.Candidate {
	metric := core.MetricDelay
	if i%2 == 1 {
		metric = core.MetricBandwidth
	}
	return r.Svc.RankFor(&core.QueryRequest{
		From:   r.Devices[i%len(r.Devices)],
		Metric: metric,
		Sorted: true,
	})
}

// QPSResult reports the throughput experiment.
type QPSResult struct {
	Queries int
	Elapsed time.Duration
	QPS     float64
	Cache   core.RankCacheStats
	Epoch   uint64
	// QueryLatency is the registry's per-query latency distribution,
	// merged across the delay and bandwidth metrics.
	QueryLatency obs.HistogramSnapshot
}

// HitRate is the cache hit fraction in [0, 1], and whether any lookups
// happened.
func (r *QPSResult) HitRate() (float64, bool) {
	total := r.Cache.Hits + r.Cache.Misses
	if total == 0 {
		return 0, false
	}
	return float64(r.Cache.Hits) / float64(total), true
}

// QPS measures scheduler query throughput with telemetry churning at the
// probe cadence throughout. Probe processing is included in the measured
// time — the number is end-to-end scheduler work, not cache lookups in
// isolation.
func QPS(cfg QPSConfig) (*QPSResult, error) {
	cfg.normalize()
	rig, err := NewQueryRig(cfg)
	if err != nil {
		return nil, err
	}
	start := wallclock.Now()
	sinceProbe := 0
	for i := 0; i < cfg.Queries; i++ {
		if sinceProbe == cfg.QueriesPerProbe {
			rig.Tick()
			sinceProbe = 0
		}
		if got := rig.Query(i); len(got) == 0 {
			return nil, fmt.Errorf("empty ranking at query %d", i)
		}
		sinceProbe++
	}
	elapsed := wallclock.Since(start)
	lat, _ := rig.Reg.FindHistogram("intsched_query_latency_seconds")
	return &QPSResult{
		Queries:      cfg.Queries,
		Elapsed:      elapsed,
		QPS:          float64(cfg.Queries) / elapsed.Seconds(),
		Cache:        rig.Svc.CacheStats(),
		Epoch:        rig.Coll.Epoch(),
		QueryLatency: lat,
	}, nil
}
