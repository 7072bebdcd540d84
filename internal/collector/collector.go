// Package collector implements the scheduler-side telemetry collector: it
// parses INT probe packets, infers the network topology from the order of
// INT records (consecutive records identify adjacent devices), and maintains
// a link-state database of measured link latencies and per-port maximum
// queue occupancies.
//
// The collector is deliberately independent of the simulator's ground-truth
// topology: everything the scheduler knows, it learned from probes — exactly
// the information a real INT deployment would have.
//
// The collector is one state owner: a node table, an edge table and the
// probe streams sit behind one mutex and are versioned by one epoch counter
// (state.go, ingest.go, aging.go). Ingest keeps a flat array of per-edge
// metrics current beside the tables; Snapshot() publishes an immutable
// Topology — a copy of that array over a structure shared between snapshots
// — and serves it lock-free until the epoch moves or something ages out
// (snapshot.go). The structure owns the per-destination path trees, built
// on first use and shared by every snapshot of it (spt.go).
//
// This file is the package's public API surface: configuration,
// construction, ingest counters, configuration setters, point lookups, and
// health/coverage reporting. Ingest lives in ingest.go, aging in aging.go,
// snapshot building in snapshot.go, and the snapshot read API on Topology in
// topology.go.
package collector

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"intsched/internal/netsim"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
)

// Config tunes the collector.
type Config struct {
	// QueueWindow is how long a flushed max-queue report stays eligible
	// when computing the current per-port maximum. The paper ranks on the
	// "maximum observed queue size in the last probing interval"; use
	// roughly 2× the probing interval so in-flight jitter cannot open
	// coverage gaps. Zero means DefaultQueueWindow.
	QueueWindow time.Duration
	// DelayAlpha is the EWMA weight for new link-latency samples in
	// (0, 1]. Zero means DefaultDelayAlpha.
	DelayAlpha float64
	// DefaultLinkRateBps is the assumed capacity of links whose rate the
	// operator has not configured; bandwidth ranking needs capacities.
	// Zero means DefaultLinkRate.
	DefaultLinkRateBps int64
	// StaleAfter marks devices whose last report is older than this as
	// stale in Coverage reports. Zero means DefaultStaleAfter.
	StaleAfter time.Duration
	// AdjacencyTTL is how long a learned adjacency survives without a
	// probe re-confirming it before it is evicted from snapshots (the live
	// re-mapping that lets the topology track link failures). Zero derives
	// the TTL from the queue window — DefaultAdjacencyWindows × QueueWindow,
	// tracking SetQueueWindow — mirroring the in-window queue-report expiry;
	// NoAdjacencyAging disables eviction entirely (the historical
	// learn-only behavior, needed when telemetry arrives on data packets
	// with no periodic refresh).
	AdjacencyTTL time.Duration
}

// Defaults for Config.
const (
	DefaultQueueWindow = 200 * time.Millisecond
	DefaultDelayAlpha  = 0.3
	DefaultLinkRate    = 20_000_000 // 20 Mbps, the paper's effective link rate
	DefaultStaleAfter  = 2 * time.Second
	// DefaultAdjacencyWindows scales the queue window into the default
	// adjacency TTL. Five windows is ~10 probe intervals at the
	// experiment's 2×interval window: long enough that a couple of lost
	// probes cannot tear a live link out of the map, short enough that a
	// dead link disappears within about a second of real failure.
	DefaultAdjacencyWindows = 5
)

// NoAdjacencyAging disables adjacency eviction when set as
// Config.AdjacencyTTL: learned edges live forever.
const NoAdjacencyAging = time.Duration(-1)

func (c Config) withDefaults() Config {
	if c.QueueWindow <= 0 {
		c.QueueWindow = DefaultQueueWindow
	}
	if c.DelayAlpha <= 0 || c.DelayAlpha > 1 {
		c.DelayAlpha = DefaultDelayAlpha
	}
	if c.DefaultLinkRateBps <= 0 {
		c.DefaultLinkRateBps = DefaultLinkRate
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = DefaultStaleAfter
	}
	return c
}

type queueReport struct {
	at       time.Duration
	maxQueue int
}

// probeKey identifies one probe stream: a host may probe several targets
// (coverage-planned routes), each with its own sequence space.
type probeKey struct {
	origin, target string
}

type probeMeta struct {
	seq uint64
	at  time.Duration
	// path is the hop sequence (origin, devices..., target) of the last
	// accepted probe; a change means the route under the stream moved.
	path []nodeID
	// remaps is this stream's cumulative path-remap count — the per-stream
	// decomposition of Stats.PathRemaps, exposed through StreamSignals so
	// the adaptive controller can react to churn deltas per stream.
	remaps uint64
}

// Collector builds and maintains the scheduler's view of the network.
type Collector struct {
	self  string
	clock func() time.Duration
	cfg   Config

	// mu guards every field of the link and stream state below. The live
	// daemon ingests on one goroutine and answers queries, metrics scrapes
	// and the control loop on others; all of them meet here. Functions named
	// *Locked expect the caller to hold it. The eviction hook runs with mu
	// held and must not call back into the collector.
	mu sync.Mutex
	// ids interns every name a probe or SetLinkRate carried. nodes holds each
	// id's nodeState (host flag, last report, egress ports, queue windows) and
	// edges each directed edge's edgeState (confirmation, tombstone, delay
	// history, configured rate) by its pair of ids (state.go).
	ids   map[string]nodeID
	nodes indexed[nodeID, *nodeState]
	edges map[edgeIDs]*edgeState
	// flushes queues one event per record that reported queues, in ingest
	// order, until its reports have left the window (ageLocked).
	flushes flushQueue
	// adjDeadline is a lower bound on the last instant every learned edge
	// still stands: exact when pruneAdjLocked last scanned, lowered by
	// backdateEdgeLocked, and only ever too early afterwards (confirmations
	// move deadlines later).
	adjDeadline time.Duration
	// cur is the structure of the adjacency and host set, order its nodes'
	// ids and live the metric slots laid out by it, kept current by state.go.
	// cur is nil when the adjacency, the host set or the queue window changed
	// since it was built; the next snapshot rebuilds all three (rebuildLocked).
	cur   *structure
	order indexed[NodeIdx, nodeID]
	live  indexed[Slot, edgeMetrics]
	// window is the queue-report window (SetQueueWindow).
	window time.Duration
	// streams holds per-stream sequence, freshness and route metadata.
	streams map[probeKey]probeMeta
	// stats holds the ingest counters.
	stats Stats
	// onEviction observes adjacency evictions.
	onEviction func(from, to string, silence time.Duration)
	// pathScratch is HandleProbe's reusable hop-sequence buffer.
	pathScratch []nodeID

	// epoch versions the state above. It advances, under mu, on every
	// accepted probe, on SetLinkRate and SetQueueWindow, and when Snapshot
	// finds that a queue report or adjacency aged out; it is read without
	// the lock.
	epoch atomic.Uint64
	// snap is the published snapshot (nil until the first Snapshot).
	snap atomic.Pointer[Topology]
}

// New creates a collector for the scheduler host self. clock supplies the
// current time (virtual in simulation, wall-clock in live mode).
func New(self netsim.NodeID, clock func() time.Duration, cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		self:    string(self),
		clock:   clock,
		cfg:     cfg,
		ids:     make(map[string]nodeID),
		edges:   make(map[edgeIDs]*edgeState),
		window:  cfg.QueueWindow,
		streams: make(map[probeKey]probeMeta),
	}
	c.nodes.at(c.internLocked(c.self)).host = true
	return c
}

// Self returns the collector's own host ID.
func (c *Collector) Self() netsim.NodeID { return netsim.NodeID(c.self) }

// Epoch returns the collector's current state version. It advances by one
// on every accepted probe and configuration change, and when a snapshot
// rebuild detects that a queue report or adjacency aged out (state changed
// without a probe); equal epochs guarantee that Snapshot returns the
// identical topology.
func (c *Collector) Epoch() uint64 { return c.epoch.Load() }

// Stats is a snapshot of the collector's ingestion counters.
type Stats struct {
	// ProbesReceived counts ingested probe payloads.
	ProbesReceived uint64
	// ProbesOutOfOrder counts probes dropped for stale sequence numbers.
	ProbesOutOfOrder uint64
	// RecordsParsed counts INT records processed.
	RecordsParsed uint64
	// AdjacencyEvictions counts learned edges aged out of the topology.
	AdjacencyEvictions uint64
	// PathRemaps counts probe streams that arrived with a changed hop
	// sequence (the route under the stream moved).
	PathRemaps uint64
	// TelemetryBytes is the total on-wire size of every ingested probe
	// payload (telemetry.EncodedSize): the fleet's telemetry spend.
	TelemetryBytes uint64
	// SnapshotPublishes counts snapshots published; StructureRebuilds counts
	// those that had to rebuild the shared structure first (the adjacency,
	// the host set or the queue window changed) instead of reusing it.
	SnapshotPublishes uint64
	StructureRebuilds uint64
}

// Stats returns the ingestion counters.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// IngestDrops returns 0: ingest is synchronous, so no probe is dropped
// between the socket and the collector. It survives only because
// bench/wireclos.go reads it; drop it when bench/ next changes (ROADMAP
// item 6).
func (c *Collector) IngestDrops() uint64 { return 0 }

// ProbeStream reports the freshness of one probe stream — the (origin,
// target) sequence space a probing host maintains. Target is "" for streams
// probing the collector itself. The observability health model derives
// per-edge probe liveness from these.
type ProbeStream struct {
	Origin, Target string
	// Seq is the highest accepted sequence number.
	Seq uint64
	// Age is the time since the last accepted probe of this stream.
	Age time.Duration
}

// ProbeStreams lists every known probe stream with its freshness, sorted by
// (origin, target).
func (c *Collector) ProbeStreams() []ProbeStream {
	now := c.clock()
	c.mu.Lock()
	out := make([]ProbeStream, 0, len(c.streams))
	for key, meta := range c.streams {
		out = append(out, ProbeStream{
			Origin: key.origin,
			Target: key.target,
			Seq:    meta.seq,
			Age:    now - meta.at,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// QueueWindow returns the configured queue-report freshness window.
func (c *Collector) QueueWindow() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.window
}

// SetQueueWindow adjusts the queue-report window, typically to track a
// changed probing interval (Fig 9 sweeps). Every windowed maximum and a
// derived adjacency TTL depend on it, so the epoch advances and the live
// slots are refilled.
func (c *Collector) SetQueueWindow(w time.Duration) {
	if w <= 0 {
		return
	}
	c.mu.Lock()
	c.window = w
	c.cur = nil
	c.epoch.Add(1)
	c.mu.Unlock()
}

// SetLinkRate records the capacity of the directed link from->to. Both
// directions are set (links are full duplex and symmetric in this system).
func (c *Collector) SetLinkRate(from, to netsim.NodeID, rateBps int64) {
	c.mu.Lock()
	u, v := c.internLocked(string(from)), c.internLocked(string(to))
	for _, e := range [2]*edgeState{c.edgeLocked(u, v), c.edgeLocked(v, u)} {
		e.rate, e.rateSet = rateBps, true
		c.storeRateLocked(e)
	}
	c.epoch.Add(1)
	c.mu.Unlock()
}

// SetEvictionHook installs a callback observing each adjacency eviction
// (from, to, and the edge's probe silence at eviction — the detection
// latency). Called with the collector's lock held: the hook must not call
// back into the collector. Evictions of one prune pass arrive sorted by
// (from, to).
func (c *Collector) SetEvictionHook(fn func(from, to string, silence time.Duration)) {
	c.mu.Lock()
	c.onEviction = fn
	c.mu.Unlock()
}

// Bind installs the collector as the probe handler of the scheduler host's
// transport stack. It also chains into the stack's control handler so that
// INT reports relayed by probe-sink hosts (coverage-planned probes that
// terminated elsewhere) are ingested too.
func (c *Collector) Bind(stack *transport.Stack) {
	stack.ProbeHandler = func(pkt *netsim.Packet) {
		if pkt.Probe != nil {
			c.HandleProbe(pkt.Probe)
		}
	}
	prev := stack.ControlHandler
	stack.ControlHandler = func(from netsim.NodeID, payload any) {
		if p, ok := payload.(*telemetry.ProbePayload); ok {
			c.HandleProbe(p)
			return
		}
		if prev != nil {
			prev(from, payload)
		}
	}
}

// MaxQueue returns the maximum queue occupancy reported for (device, port)
// within the queue window, and whether any report exists in the window.
func (c *Collector) MaxQueue(device string, port int) (int, bool) {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.ids[device]
	if !ok {
		return 0, false
	}
	best, found, _ := c.nodes.at(id).window(port).windowMax(now, c.window)
	return best, found
}

// LinkDelay returns the EWMA latency estimate for the directed link
// from->to, and whether any measurement exists.
func (c *Collector) LinkDelay(from, to string) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.edgeByNameLocked(from, to)
	if e == nil || e.delay.samples == 0 {
		return 0, false
	}
	return e.delay.ewma, true
}

// LinkJitter returns the standard deviation of latency samples for the
// directed link from->to, and whether at least two samples exist.
func (c *Collector) LinkJitter(from, to string) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.edgeByNameLocked(from, to)
	if e == nil || e.delay.samples < 2 {
		return 0, false
	}
	return e.delay.jitter(), true
}

// EvictedEdge is a tombstoned adjacency: a link the collector learned and
// then aged out because probes stopped traversing it.
type EvictedEdge struct {
	From, To string
	// Since is how long ago the edge was evicted.
	Since time.Duration
}

// EvictedEdges lists current tombstones sorted by (From, To). A tombstone
// clears when a probe relearns the edge.
func (c *Collector) EvictedEdges() []EvictedEdge {
	now := c.clock()
	c.mu.Lock()
	out := make([]EvictedEdge, 0)
	for _, e := range c.edges {
		if e.tombstoned {
			out = append(out, EvictedEdge{From: c.nodes.at(e.from).name, To: c.nodes.at(e.to).name, Since: now - e.evictedAt})
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// CoverageReport describes telemetry freshness across known devices.
type CoverageReport struct {
	// Fresh lists devices whose last INT record is within StaleAfter.
	Fresh []string
	// Stale lists known devices with no recent report — the paper's
	// future-work concern that probe routes may not cover every device.
	Stale []string
	// LastSeen maps every known device to its last report time.
	LastSeen map[string]time.Duration
}

// Coverage reports which devices have fresh telemetry.
func (c *Collector) Coverage() CoverageReport {
	now := c.clock()
	rep := CoverageReport{LastSeen: make(map[string]time.Duration)}
	c.mu.Lock()
	for _, n := range c.nodes.s {
		if n.reported {
			rep.LastSeen[n.name] = n.lastReport
			if now-n.lastReport <= c.cfg.StaleAfter {
				rep.Fresh = append(rep.Fresh, n.name)
			} else {
				rep.Stale = append(rep.Stale, n.name)
			}
		}
	}
	c.mu.Unlock()
	slices.Sort(rep.Fresh)
	slices.Sort(rep.Stale)
	return rep
}
