package live

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"intsched/internal/adapt"
	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/netsim"
	"intsched/internal/obs"
	"intsched/internal/telemetry"
	"intsched/internal/wire"
)

// CollectorDaemon is the live scheduler: it ingests INT probes over UDP,
// maintains the learned topology in a collector.Collector, and serves
// ranking queries over a TCP API. An optional HTTP listener exposes the
// daemon's metrics registry (/metrics) and telemetry health (/healthz).
type CollectorDaemon struct {
	id   string
	base time.Time

	udp   *net.UDPConn
	tcp   net.Listener
	hsrv  *http.Server
	haddr string

	coll     *collector.Collector
	engine   core.Engine
	wg       sync.WaitGroup
	closed   chan struct{}
	closeOne sync.Once

	reg    *obs.Registry
	health *obs.Health
	// Ingest-path counters: every probe datagram lands in exactly one of
	// these four (plus the collector's own out-of-order drop counter). All
	// are single atomic adds — the probe hot path takes no daemon lock.
	probesReceived *obs.Counter
	datagramErrors *obs.Counter
	unexpectedKind *obs.Counter
	payloadErrors  *obs.Counter
	queryErrors    *obs.Counter
	// queryLatency is indexed by core.Metric; metrics not served live have
	// no histogram.
	queryLatency [core.NumMetrics]*obs.Histogram

	// Open query connections, so that admission can be capped and Close can
	// end them without waiting out their idle deadlines.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	// Connections refused or dropped, by reason.
	shedConnLimit, shedFrameTooLarge, shedBadFrame *obs.Counter

	// Fault observability: detection latency is the probe silence observed
	// when a learned edge ages out; rerouted queries count answers whose
	// best candidate changed from the same device's previous answer.
	faultDetection  *obs.Histogram
	queriesRerouted *obs.Counter
	rerouteMu       sync.Mutex
	lastTop         map[rerouteKey]netsim.NodeID

	// Adaptive cadence control (nil ctrl when disabled). The control loop
	// is the only writer of ctrl state; metrics readers share adaptMu.
	adaptMu        sync.Mutex
	adaptCtrl      *adapt.Controller
	adaptBudget    float64 // budget fraction of the full static rate
	directivesSent *obs.Counter
	// originAddrs records the return UDP address (the last-hop soft switch)
	// of each origin's newest probe, so directives can ride the probe path
	// back toward the agent.
	originMu    sync.Mutex
	originAddrs map[string]*net.UDPAddr
}

// rerouteKey identifies a device's query stream for reroute tracking.
type rerouteKey struct {
	from   string
	metric core.Metric
}

// DaemonConfig tunes the collector daemon.
type DaemonConfig struct {
	// UDPAddr and TCPAddr are the bind addresses ("127.0.0.1:0" for
	// ephemeral ports).
	UDPAddr, TCPAddr string
	// HTTPAddr, when non-empty, binds the observability endpoints
	// (/metrics, /healthz). Empty disables the HTTP listener.
	HTTPAddr string
	// K is the queue→latency conversion factor (core.DefaultK when zero).
	K time.Duration
	// LinkRateBps is the assumed link capacity for bandwidth estimates.
	LinkRateBps int64
	// QueueWindow bounds queue-report freshness (collector default when
	// zero).
	QueueWindow time.Duration
	// DegradedAfter is the probe silence per edge after which /healthz
	// reports degraded. Zero means 3 queue windows — the paper's ranking
	// inputs (windowed queue maxima) have fully aged out well before that.
	DegradedAfter time.Duration
	// AdjacencyTTL bounds how long a learned edge outlives its last
	// supporting probe (collector default of 5 queue windows when zero;
	// collector.NoAdjacencyAging disables aging).
	AdjacencyTTL time.Duration
	// ExcludeUnreachable enables the fault-recovery policy: candidates
	// whose learned path aged out are dropped from answers, unless no
	// candidate is reachable (graceful fallback to the full estimate list).
	ExcludeUnreachable bool
	// Adaptive starts the cadence control loop: the daemon periodically
	// runs the adapt controller over the collector's stream signals and
	// sends the resulting directives back along each stream's probe return
	// path. Agents only honor them after ProbeAgent.EnableAdaptive, so a
	// mixed fleet degrades to static cadence.
	Adaptive bool
	// AdaptiveBase is the fleet's static probe interval, anchoring the
	// controller's cadence clamps and evaluation period (100 ms when zero).
	AdaptiveBase time.Duration
	// ProbeBudget caps the aggregate directive-allocated probe rate as a
	// fraction (0, 1] of the full static rate (stream count / AdaptiveBase).
	// Zero means no budget: streams still back off on stability but are
	// never force-slowed. A non-zero budget requires Adaptive.
	ProbeBudget float64
}

// NewCollectorDaemon starts the daemon for scheduler node id.
func NewCollectorDaemon(id string, cfg DaemonConfig) (*CollectorDaemon, error) {
	if err := adapt.CheckBudget(cfg.ProbeBudget, cfg.Adaptive); err != nil {
		return nil, err
	}
	if cfg.UDPAddr == "" {
		cfg.UDPAddr = "127.0.0.1:0"
	}
	if cfg.TCPAddr == "" {
		cfg.TCPAddr = "127.0.0.1:0"
	}
	udpAddr, err := net.ResolveUDPAddr("udp", cfg.UDPAddr)
	if err != nil {
		return nil, err
	}
	udp, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	tcp, err := net.Listen("tcp", cfg.TCPAddr)
	if err != nil {
		udp.Close()
		return nil, err
	}
	delayRanker := &core.DelayRanker{K: cfg.K}
	bwRanker := &core.BandwidthRanker{}
	d := &CollectorDaemon{
		id:     id,
		base:   time.Now(),
		udp:    udp,
		tcp:    tcp,
		closed: make(chan struct{}),
	}
	d.engine.Register(delayRanker)
	d.engine.Register(bwRanker)
	d.engine.Register(&core.TransferTimeRanker{Delay: delayRanker, Bandwidth: bwRanker})
	d.engine.ExcludeUnreachable = cfg.ExcludeUnreachable
	d.coll = collector.New(netsim.NodeID(id), d.clock, collector.Config{
		QueueWindow:        cfg.QueueWindow,
		DefaultLinkRateBps: cfg.LinkRateBps,
		AdjacencyTTL:       cfg.AdjacencyTTL,
	})
	d.lastTop = make(map[rerouteKey]netsim.NodeID)
	d.conns = make(map[net.Conn]struct{})
	if cfg.Adaptive {
		d.adaptCtrl = adapt.NewController(adapt.Config{BaseInterval: cfg.AdaptiveBase})
		d.adaptBudget = cfg.ProbeBudget
		d.originAddrs = make(map[string]*net.UDPAddr)
	}
	d.initObs(cfg)
	if cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			udp.Close()
			tcp.Close()
			return nil, err
		}
		d.haddr = ln.Addr().String()
		d.hsrv = &http.Server{Handler: obs.Handler(d.reg, d.health)}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_ = d.hsrv.Serve(ln)
		}()
	}
	d.wg.Add(2)
	go d.probeLoop()
	go d.queryLoop()
	if d.adaptCtrl != nil {
		d.wg.Add(1)
		go d.controlLoop()
	}
	return d, nil
}

// controlLoop periodically runs the adaptive controller over the collector's
// stream signals and sends each resulting cadence directive back along its
// stream's probe return path. Live mode runs on the wall clock — determinism
// is the simulator driver's contract, not this loop's.
func (d *CollectorDaemon) controlLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.adaptCtrl.Config().EvalInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.closed:
			return
		case <-ticker.C:
			sigs := adapt.SignalsFrom(d.coll)
			d.adaptMu.Lock()
			if d.adaptBudget > 0 && len(sigs) > 0 {
				base := d.adaptCtrl.Config().BaseInterval
				d.adaptCtrl.SetBudget(d.adaptBudget*float64(len(sigs))/base.Seconds(), 0)
			}
			dirs := d.adaptCtrl.Decide(sigs)
			d.adaptMu.Unlock()
			for _, dir := range dirs {
				d.sendDirective(dir)
			}
		}
	}
}

// sendDirective encodes one cadence directive and sends it toward the
// origin agent via the UDP peer (the last-hop soft switch) that delivered
// the origin's newest probe; the switch forwards it by overlay destination.
// Origins whose return address is not yet known are skipped — the next
// evaluation retries, since the controller re-emits on any further change
// and agents seq-gate whatever arrives.
func (d *CollectorDaemon) sendDirective(dir adapt.Directive) {
	d.originMu.Lock()
	addr := d.originAddrs[dir.Origin]
	d.originMu.Unlock()
	if addr == nil {
		return
	}
	dg := &wire.Datagram{
		Kind:     wire.KindDirective,
		TTL:      wire.DefaultTTL,
		Src:      d.id,
		Dst:      dir.Origin,
		SentAtNs: time.Now().UnixNano(),
		Payload:  telemetry.EncodeDirective(telemetry.CadenceDirective{Interval: dir.Interval, Seq: dir.Seq}),
	}
	buf, err := dg.Marshal()
	if err != nil {
		return
	}
	if _, err := d.udp.WriteToUDP(buf, addr); err == nil {
		d.directivesSent.Inc()
	}
}

// initObs builds the daemon's metrics registry and health model.
func (d *CollectorDaemon) initObs(cfg DaemonConfig) {
	d.reg = obs.NewRegistry()
	d.health = &obs.Health{}

	d.probesReceived = d.reg.Counter(obs.Opts{
		Name: "intsched_probes_received_total",
		Help: "Probe datagrams decoded and handed to the collector.",
	})
	d.datagramErrors = d.reg.Counter(obs.Opts{
		Name: "intsched_probe_datagram_errors_total",
		Help: "UDP datagrams dropped because the overlay header failed to unmarshal.",
	})
	d.unexpectedKind = d.reg.Counter(obs.Opts{
		Name: "intsched_probe_unexpected_kind_total",
		Help: "Well-formed datagrams dropped because they were not probes.",
	})
	d.payloadErrors = d.reg.Counter(obs.Opts{
		Name: "intsched_probe_payload_errors_total",
		Help: "Probe datagrams dropped because the INT payload failed to decode.",
	})
	d.queryErrors = d.reg.Counter(obs.Opts{
		Name: "intsched_query_errors_total",
		Help: "Ranking queries rejected (unknown or unserved metric).",
	})
	for _, m := range []core.Metric{core.MetricDelay, core.MetricBandwidth, core.MetricTransferTime} {
		d.queryLatency[m] = d.reg.Histogram(obs.Opts{
			Name:   "intsched_query_latency_seconds",
			Help:   "Answer latency of ranking queries.",
			Labels: []obs.Label{{Key: "metric", Value: m.String()}},
		}, nil)
	}
	shed := func(reason string) *obs.Counter {
		return d.reg.Counter(obs.Opts{
			Name:   "intsched_queries_shed_total",
			Help:   "Query connections refused at the admission cap or dropped for a frame the scheduler will not read.",
			Labels: []obs.Label{{Key: "reason", Value: reason}},
		})
	}
	d.shedConnLimit, d.shedFrameTooLarge, d.shedBadFrame = shed("conn_limit"), shed("frame_too_large"), shed("bad_frame")
	d.reg.GaugeFunc(obs.Opts{
		Name: "intsched_query_connections",
		Help: "Open query connections.",
	}, func() float64 {
		d.connMu.Lock()
		defer d.connMu.Unlock()
		return float64(len(d.conns))
	})

	// Collector-maintained counts surface through read-through functions:
	// the collector already guards them, so the registry stores no copy.
	d.reg.CounterFunc(obs.Opts{
		Name: "intsched_probes_stale_total",
		Help: "Probes dropped by the collector for stale sequence numbers.",
	}, func() float64 { return float64(d.coll.Stats().ProbesOutOfOrder) })
	d.reg.CounterFunc(obs.Opts{
		Name: "intsched_collector_records_parsed_total",
		Help: "INT records processed by the collector.",
	}, func() float64 { return float64(d.coll.Stats().RecordsParsed) })
	d.reg.GaugeFunc(obs.Opts{
		Name: "intsched_collector_epoch",
		Help: "Collector state version; advances on every accepted probe and config change.",
	}, func() float64 { return float64(d.coll.Epoch()) })
	d.reg.GaugeFunc(obs.Opts{
		Name: "intsched_collector_snapshot_age_seconds",
		Help: "Age of the current topology snapshot (time since it was published).",
	}, func() float64 { return (d.clock() - d.coll.Snapshot().TakenAt()).Seconds() })
	d.reg.CounterFunc(obs.Opts{
		Name: "intsched_collector_snapshot_publishes_total",
		Help: "Topology snapshots published: one per epoch that a query or scrape read.",
	}, func() float64 { return float64(d.coll.Stats().SnapshotPublishes) })
	d.reg.CounterFunc(obs.Opts{
		Name: "intsched_collector_structure_rebuilds_total",
		Help: "Snapshot publishes that rebuilt the topology structure (adjacency, host set or queue window changed) instead of sharing the previous one.",
	}, func() float64 { return float64(d.coll.Stats().StructureRebuilds) })
	d.reg.GaugeFunc(obs.Opts{
		Name: "intsched_probe_streams",
		Help: "Known probe streams (origin/target sequence spaces).",
	}, func() float64 { return float64(len(d.coll.ProbeStreams())) })

	// Fault detection and recovery. The eviction hook runs inside the
	// collector's snapshot rebuild, so it must only touch the histogram's
	// own atomics — never call back into the collector.
	d.faultDetection = d.reg.Histogram(obs.Opts{
		Name: "intsched_fault_detection_latency_seconds",
		Help: "Probe silence observed when a learned edge aged out of the topology: how long a failure went unnoticed.",
	}, nil)
	d.coll.SetEvictionHook(func(from, to string, silence time.Duration) {
		d.faultDetection.ObserveDuration(silence)
	})
	d.queriesRerouted = d.reg.Counter(obs.Opts{
		Name: "intsched_queries_rerouted_total",
		Help: "Answers whose best candidate changed from the same device's previous answer for the metric.",
	})
	d.reg.GaugeFunc(obs.Opts{
		Name: "intsched_topology_evicted_edges",
		Help: "Learned edges currently aged out and awaiting relearning.",
	}, func() float64 { return float64(len(d.coll.EvictedEdges())) })
	d.reg.CounterFunc(obs.Opts{
		Name: "intsched_collector_adjacency_evictions_total",
		Help: "Learned edges aged out of the topology after probe silence.",
	}, func() float64 { return float64(d.coll.Stats().AdjacencyEvictions) })
	d.reg.CounterFunc(obs.Opts{
		Name: "intsched_collector_path_remaps_total",
		Help: "Probe streams observed arriving over a changed hop sequence.",
	}, func() float64 { return float64(d.coll.Stats().PathRemaps) })

	// Telemetry spend: the bytes-on-wire of every ingested probe.
	d.reg.CounterFunc(obs.Opts{
		Name: "intsched_probe_bytes_total",
		Help: "Encoded INT payload bytes of probes handed to the collector.",
	}, func() float64 { return float64(d.coll.Stats().TelemetryBytes) })
	for _, c := range []struct {
		name, help string
		read       func(core.RankCacheStats) uint64
	}{
		{"intsched_rank_cache_hits_total", "Ranking queries served from the epoch-keyed rank cache.",
			func(s core.RankCacheStats) uint64 { return s.Hits }},
		{"intsched_rank_cache_misses_total", "Ranking queries that recomputed from the snapshot.",
			func(s core.RankCacheStats) uint64 { return s.Misses }},
		{"intsched_rank_cache_invalidations_total", "Rank cache flushes on epoch advance.",
			func(s core.RankCacheStats) uint64 { return s.Invalidations }},
	} {
		read := c.read
		d.reg.CounterFunc(obs.Opts{Name: c.name, Help: c.help}, func() float64 {
			return float64(read(d.engine.CacheStats()))
		})
	}

	// Adaptive cadence control: the allocated per-class cadences, the
	// directive counters by reason, and how much of the probe budget the
	// current allocation uses. Readers run on scrape goroutines, so every
	// controller access shares adaptMu with the control loop.
	if d.adaptCtrl != nil {
		d.directivesSent = d.reg.Counter(obs.Opts{
			Name: "intsched_cadence_directives_sent_total",
			Help: "Cadence directives sent back along probe return paths.",
		})
		for _, c := range []struct {
			class string
			read  func(adapt.CadenceSummary) float64
		}{
			{"tight", func(s adapt.CadenceSummary) float64 { return s.TightMicros }},
			{"base", func(s adapt.CadenceSummary) float64 { return s.BaseMicros }},
			{"backoff", func(s adapt.CadenceSummary) float64 { return s.BackoffMicros }},
		} {
			read := c.read
			d.reg.GaugeFunc(obs.Opts{
				Name:   "intsched_probe_cadence_us",
				Help:   "Mean allocated probe interval per cadence class, microseconds.",
				Labels: []obs.Label{{Key: "class", Value: c.class}},
			}, func() float64 {
				d.adaptMu.Lock()
				defer d.adaptMu.Unlock()
				return read(d.adaptCtrl.Cadences())
			})
		}
		for _, r := range []struct {
			reason string
			read   func(adapt.Stats) uint64
		}{
			{adapt.ReasonTighten.String(), func(s adapt.Stats) uint64 { return s.Tightens }},
			{adapt.ReasonSilence.String(), func(s adapt.Stats) uint64 { return s.SilenceTightens }},
			{adapt.ReasonFanOut.String(), func(s adapt.Stats) uint64 { return s.FanOuts }},
			{adapt.ReasonBackoff.String(), func(s adapt.Stats) uint64 { return s.Backoffs }},
			{adapt.ReasonBudget.String(), func(s adapt.Stats) uint64 { return s.BudgetClamps }},
		} {
			read := r.read
			d.reg.CounterFunc(obs.Opts{
				Name:   "intsched_cadence_directives_total",
				Help:   "Cadence directives decided by the adaptive controller, by reason.",
				Labels: []obs.Label{{Key: "reason", Value: r.reason}},
			}, func() float64 {
				d.adaptMu.Lock()
				defer d.adaptMu.Unlock()
				return float64(read(d.adaptCtrl.Stats()))
			})
		}
		d.reg.GaugeFunc(obs.Opts{
			Name: "intsched_probe_budget_utilization",
			Help: "Allocated probe rate over the effective budget cap (0 when unbudgeted).",
		}, func() float64 {
			d.adaptMu.Lock()
			defer d.adaptMu.Unlock()
			return d.adaptCtrl.Stats().BudgetUtilization
		})
	}

	// Health: the scheduler is only trustworthy while its telemetry stream
	// is alive. Degrade when any known edge falls silent for longer than
	// the windowed ranking inputs stay valid, when devices go stale, or
	// when no probe has ever arrived.
	degradedAfter := cfg.DegradedAfter
	d.health.Register("probe-ingest", func() []string {
		if d.probesReceived.Value() == 0 {
			return []string{"no probes received yet"}
		}
		return nil
	})
	d.health.Register("probe-liveness", func() []string {
		window := d.coll.QueueWindow()
		threshold := degradedAfter
		if threshold <= 0 {
			threshold = 3 * window
		}
		// A host may run several planned probe streams; it is alive if any
		// of them is fresh. ProbeStreams is sorted, so reasons come out in
		// origin order.
		newest := make(map[string]time.Duration)
		var origins []string
		for _, s := range d.coll.ProbeStreams() {
			age, ok := newest[s.Origin]
			if !ok {
				origins = append(origins, s.Origin)
			}
			if !ok || s.Age < age {
				newest[s.Origin] = s.Age
			}
		}
		var reasons []string
		for _, origin := range origins {
			if age := newest[origin]; age > threshold {
				windows := "unbounded"
				if window > 0 {
					windows = fmt.Sprintf("%.0f", float64(age)/float64(window))
				}
				reasons = append(reasons, fmt.Sprintf(
					"no probes from edge %s for %v (%s queue windows)",
					origin, age.Round(time.Millisecond), windows))
			}
		}
		return reasons
	})
	d.health.Register("topology-evictions", func() []string {
		var reasons []string
		for _, e := range d.coll.EvictedEdges() {
			reasons = append(reasons, fmt.Sprintf(
				"learned link %s->%s aged out (silent for %v)",
				e.From, e.To, e.Since.Round(time.Millisecond)))
		}
		return reasons
	})
	d.health.Register("topology-staleness", func() []string {
		cov := d.coll.Coverage()
		var reasons []string
		for _, dev := range cov.Stale {
			age := d.clock() - cov.LastSeen[dev]
			reasons = append(reasons, fmt.Sprintf(
				"stale telemetry from device %s (last report %v ago)",
				dev, age.Round(time.Millisecond)))
		}
		return reasons
	})
}

// clock returns daemon-relative time, the collector's timebase.
func (d *CollectorDaemon) clock() time.Duration { return time.Since(d.base) }

// ID returns the scheduler node name.
func (d *CollectorDaemon) ID() string { return d.id }

// UDPAddr returns the probe ingestion address.
func (d *CollectorDaemon) UDPAddr() string { return d.udp.LocalAddr().String() }

// QueryAddr returns the TCP query API address.
func (d *CollectorDaemon) QueryAddr() string { return d.tcp.Addr().String() }

// HTTPAddr returns the observability endpoint address ("" when the HTTP
// listener is disabled).
func (d *CollectorDaemon) HTTPAddr() string { return d.haddr }

// Collector exposes the underlying collector (tests, coverage reports).
func (d *CollectorDaemon) Collector() *collector.Collector { return d.coll }

// CacheStats reports the daemon's rank-cache counters.
func (d *CollectorDaemon) CacheStats() core.RankCacheStats { return d.engine.CacheStats() }

// Metrics exposes the daemon's metric registry (the same one /metrics
// serves), for embedding the daemon and for local diagnostics.
func (d *CollectorDaemon) Metrics() *obs.Registry { return d.reg }

// Health exposes the daemon's health model (the same one /healthz serves).
func (d *CollectorDaemon) Health() *obs.Health { return d.health }

// DaemonStats counts the daemon's probe ingest outcomes. Every received
// datagram lands in exactly one bucket; collector-level drops (stale
// sequence numbers) are counted separately in collector.Stats.
type DaemonStats struct {
	// ProbesReceived counts decoded probe datagrams handed to the collector.
	ProbesReceived uint64
	// DatagramErrors counts datagrams whose overlay header failed to
	// unmarshal.
	DatagramErrors uint64
	// UnexpectedKinds counts well-formed datagrams that were not probes.
	UnexpectedKinds uint64
	// PayloadErrors counts probe datagrams whose INT payload failed to
	// decode, sampled probes (telemetry.ErrSampledProbe) included.
	PayloadErrors uint64
}

// Stats returns the daemon's ingest counters.
func (d *CollectorDaemon) Stats() DaemonStats {
	return DaemonStats{
		ProbesReceived:  d.probesReceived.Value(),
		DatagramErrors:  d.datagramErrors.Value(),
		UnexpectedKinds: d.unexpectedKind.Value(),
		PayloadErrors:   d.payloadErrors.Value(),
	}
}

// Close shuts the daemon down. Open query connections are closed with it,
// idle or not.
func (d *CollectorDaemon) Close() {
	d.closeOne.Do(func() {
		close(d.closed)
		d.udp.Close()
		d.tcp.Close()
		if d.hsrv != nil {
			d.hsrv.Close()
		}
		d.connMu.Lock()
		for conn := range d.conns {
			conn.Close()
		}
		d.connMu.Unlock()
	})
	d.wg.Wait()
}

func (d *CollectorDaemon) probeLoop() {
	defer d.wg.Done()
	buf := make([]byte, maxDatagram)
	// Decode target reused across probes: HandleProbe copies everything it
	// keeps into collector-owned maps, so the payload (and its record/queue
	// slices) can be recycled as soon as ingest returns.
	var payload telemetry.ProbePayload
	for {
		n, from, err := d.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		// Bad input is dropped, never fatal — but each drop class is
		// counted so a misbehaving sender shows up in /metrics instead of
		// vanishing silently.
		dg, err := wire.UnmarshalDatagram(buf[:n])
		if err != nil {
			d.datagramErrors.Inc()
			continue
		}
		if dg.Kind != wire.KindProbe {
			d.unexpectedKind.Inc()
			continue
		}
		if err := telemetry.UnmarshalProbeInto(&payload, dg.Payload); err != nil {
			d.payloadErrors.Inc()
			continue
		}
		if d.adaptCtrl != nil {
			// Remember the probe's UDP peer (its last-hop switch) as the
			// origin's directive return path.
			d.originMu.Lock()
			d.originAddrs[payload.Origin] = from
			d.originMu.Unlock()
		}
		d.ingest(&payload)
	}
}

// ingest converts the probe's absolute (UnixNano) timestamps into the
// daemon's relative timebase and hands it to the collector. HandleProbe
// copies what it keeps, so the decode loop's reused payload buffers are free
// the moment this returns.
func (d *CollectorDaemon) ingest(p *telemetry.ProbePayload) {
	baseNs := d.base.UnixNano()
	for i := range p.Stack.Records {
		r := &p.Stack.Records[i]
		if r.EgressTS > 0 {
			r.EgressTS -= time.Duration(baseNs)
			if r.EgressTS < 0 {
				r.EgressTS = 0
			}
		}
	}
	if p.SentAt > 0 {
		p.SentAt -= time.Duration(baseNs)
	}
	d.probesReceived.Inc()
	d.coll.HandleProbe(p)
}

// The query front door's limits. The port is unauthenticated, so each is a
// constant a peer cannot raise.
const (
	// queryIdleTimeout is how long a connection may take to deliver its next
	// frame and accept the answer before the daemon closes it.
	queryIdleTimeout = 5 * time.Second
	// maxQueryConns caps open query connections. A device parks its
	// connection for at most clientIdleTimeout after a query, so the cap is
	// reached by that many devices asking at once, or by an attacker; the
	// next connection is closed on accept and counted.
	maxQueryConns = 1024
	// queryReadBuffer holds the longest request frame and its header, so
	// one read takes in a whole request.
	queryReadBuffer = 1024
)

func (d *CollectorDaemon) queryLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.tcp.Accept()
		if err != nil {
			return
		}
		if !d.admit(conn) {
			conn.Close()
			continue
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serve(conn)
			d.connMu.Lock()
			delete(d.conns, conn)
			d.connMu.Unlock()
			conn.Close()
		}()
	}
}

// admit records conn as open unless the daemon is closing or already holds
// maxQueryConns connections.
func (d *CollectorDaemon) admit(conn net.Conn) bool {
	d.connMu.Lock()
	defer d.connMu.Unlock()
	select {
	case <-d.closed:
		// Close has swept, or is about to sweep, d.conns.
		return false
	default:
	}
	if len(d.conns) >= maxQueryConns {
		d.shedConnLimit.Inc()
		return false
	}
	d.conns[conn] = struct{}{}
	return true
}

// serve answers the frames of one query connection in arrival order, until
// the peer closes it, stays idle past queryIdleTimeout, or sends a frame the
// daemon will not read. A one-shot client and one that writes several
// requests before reading are served alike. The request, the ranking, the
// response and the frame buffer are the connection's own and are reused for
// every frame.
func (d *CollectorDaemon) serve(conn net.Conn) {
	br := bufio.NewReaderSize(conn, queryReadBuffer)
	var (
		f      wire.Framer
		req    wire.QueryRequest
		resp   wire.QueryResponse
		ranked []core.Candidate
	)
	for {
		_ = conn.SetDeadline(time.Now().Add(queryIdleTimeout)) // a failure shows at the read
		if err := f.ReadFrame(br, &req); err != nil {
			switch {
			case errors.Is(err, wire.ErrFrameTooLarge):
				d.shedFrameTooLarge.Inc()
			case errors.Is(err, wire.ErrBadFrame):
				d.shedBadFrame.Inc()
			default:
				return // the peer left or fell silent
			}
			// The stream cannot be resynchronised: say why and hang up.
			_ = f.WriteFrame(conn, &wire.QueryResponse{Error: err.Error()})
			return
		}
		ranked = d.answerInto(&resp, &req, ranked[:0])
		if err := f.WriteFrame(conn, &resp); err != nil {
			return
		}
	}
}

// Answer computes the response for a query (exported for tests and for the
// cmd/intsched daemon's local diagnostics). It is safe for concurrent
// callers — queries read one immutable epoch-versioned snapshot, and
// repeated queries between probe arrivals are served from the same rank
// cache machinery the simulated scheduler service uses.
func (d *CollectorDaemon) Answer(req *wire.QueryRequest) *wire.QueryResponse {
	resp := new(wire.QueryResponse)
	d.answerInto(resp, req, nil)
	return resp
}

// answerInto overwrites resp with the answer to req, keeping the candidate
// slice resp already has. The engine's ranking is appended to ranked, which
// is returned for reuse.
func (d *CollectorDaemon) answerInto(resp *wire.QueryResponse, req *wire.QueryRequest, ranked []core.Candidate) []core.Candidate {
	resp.Metric, resp.Error, resp.Candidates = req.Metric, "", resp.Candidates[:0]
	metric, ok := core.ParseMetric(req.Metric)
	if !ok {
		d.queryErrors.Inc()
		resp.Error = fmt.Sprintf("unknown metric %q", req.Metric)
		return ranked
	}
	topo := d.coll.Snapshot()
	start := time.Now()
	ranked, ok = d.engine.Answer(ranked, topo, &core.QueryRequest{
		From:      netsim.NodeID(req.From),
		Metric:    metric,
		Count:     req.Count,
		Sorted:    req.Sorted,
		DataBytes: req.DataBytes,
	})
	if !ok {
		d.queryErrors.Inc()
		resp.Error = fmt.Sprintf("metric %q not served live", req.Metric)
		return ranked
	}
	if req.Sorted {
		// Option two answers in ID order: its first entry is not a choice.
		d.trackReroute(topo, req.From, metric, ranked)
	}
	resp.Candidates = slices.Grow(resp.Candidates, len(ranked))
	for _, c := range ranked {
		resp.Candidates = append(resp.Candidates, wire.CandidateInfo{
			Node:         string(c.Node),
			DelayNs:      int64(c.Delay),
			BandwidthBps: c.BandwidthBps,
			Hops:         c.Hops,
			Reachable:    c.Reachable,
		})
	}
	if h := d.queryLatency[metric]; h != nil {
		h.ObserveDuration(time.Since(start))
	}
	return ranked
}

// trackReroute counts answers whose best candidate changed from the device's
// previous answer for the same metric: after a failure is detected, the
// first corrected answer per affected device surfaces here as a reroute.
func (d *CollectorDaemon) trackReroute(topo *collector.Topology, from string, metric core.Metric, ranked []core.Candidate) {
	if len(ranked) == 0 {
		return
	}
	top := ranked[0].Node
	key := rerouteKey{from: from, metric: metric}
	d.rerouteMu.Lock()
	prev, seen := d.lastTop[key]
	// Requester names come off the wire and unknown ones are answered too:
	// only hosts of the snapshot get an entry, so the map is bounded by
	// hosts × metrics.
	if seen || topo.HostIndex(from) >= 0 {
		d.lastTop[key] = top
	}
	d.rerouteMu.Unlock()
	if seen && prev != top {
		d.queriesRerouted.Inc()
	}
}
