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
// The link-state database is sharded: Config.Shards partitions the node ID
// space (by an operator-supplied partition map or an FNV-1a hash) into
// independent shards, each with its own mutex, queue-window state,
// adjacency-aging state, and epoch counter, so probes crossing disjoint
// partitions ingest without contending (shard.go, ingest.go, aging.go).
// Snapshot() is a merge-on-read over cached per-shard views versioned by a
// composite epoch vector (snapshot.go), and per-destination path trees are
// maintained incrementally across snapshots (spt.go). With the default
// single shard the observable behavior — epochs included — is identical to
// the historical single-mutex collector.
//
// This file is the package's public API surface: configuration,
// construction, ingest counters, configuration setters, point lookups, and
// health/coverage reporting. Ingest lives in ingest.go, aging in aging.go,
// view building and merging in snapshot.go, and the snapshot read API on
// Topology in topology.go.
package collector

import (
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
	// Shards is the number of link-state partitions (clamped to
	// [1, MaxShards]). Zero or one keeps the historical single-shard
	// behavior; larger values let probes through disjoint partitions
	// ingest concurrently and confine epoch invalidation to the touched
	// partitions.
	Shards int
	// Partition maps a node ID to a shard index; results are reduced
	// modulo Shards, so a topology's partition map (e.g. pod or region
	// number) composes with any shard count. Nil means an FNV-1a hash of
	// the node ID.
	Partition func(node string) int
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
	// MaxShards bounds Config.Shards.
	MaxShards = 64
	// DefaultIngestQueue is the per-shard queue length used by
	// StartIngestWorkers when none is given.
	DefaultIngestQueue = 256
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
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	return c
}

type edgeKey struct{ from, to string }

type portKey struct {
	device string
	port   int
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
	path []string
	// remaps and resets are this stream's cumulative path-remap and
	// reassembly-reset counts — the per-stream decomposition of the global
	// pathRemaps/reasmResets counters, exposed through StreamSignals so the
	// adaptive controller can react to churn deltas per stream.
	remaps, resets uint64
}

// Collector builds and maintains the scheduler's view of the network.
type Collector struct {
	self  string
	clock func() time.Duration
	cfg   Config
	// queueWindowNs is the mutable queue window (SetQueueWindow), read by
	// shard operations without a global lock.
	queueWindowNs atomic.Int64

	shards    []*shard
	partition func(string) int

	// snapMu serializes merged-snapshot rebuilds; snap is the published
	// cached snapshot (nil until first Snapshot).
	snapMu sync.Mutex
	snap   atomic.Pointer[mergedSnap]
	// spt is the shared incremental shortest-path-tree store.
	spt *sptStore

	// Ingest counters (atomic; see Stats).
	probesReceived     atomic.Uint64
	probesOutOfOrder   atomic.Uint64
	recordsParsed      atomic.Uint64
	pathRemaps         atomic.Uint64
	ingestDrops        atomic.Uint64
	telemetryBytes     atomic.Uint64
	recordsReassembled atomic.Uint64
	reasmCompletions   atomic.Uint64
	reasmResets        atomic.Uint64

	// Asynchronous ingest (live mode only; see StartIngestWorkers).
	ingest   atomic.Pointer[[]chan *telemetry.ProbePayload]
	ingestWG sync.WaitGroup
}

// New creates a collector for the scheduler host self. clock supplies the
// current time (virtual in simulation, wall-clock in live mode).
func New(self netsim.NodeID, clock func() time.Duration, cfg Config) *Collector {
	cfg = cfg.withDefaults()
	c := &Collector{
		self:      string(self),
		clock:     clock,
		cfg:       cfg,
		partition: cfg.Partition,
		spt:       newSPTStore(),
	}
	c.queueWindowNs.Store(int64(cfg.QueueWindow))
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = newShard()
	}
	c.shardFor(c.self).isHost[c.self] = true
	return c
}

// Self returns the collector's own host ID.
func (c *Collector) Self() netsim.NodeID { return netsim.NodeID(c.self) }

// shardOf maps a node ID to its owning shard index.
func (c *Collector) shardOf(node string) int {
	n := len(c.shards)
	if c.partition != nil {
		i := c.partition(node) % n
		if i < 0 {
			i += n
		}
		return i
	}
	if n == 1 {
		return 0
	}
	return int(fnv32a(node) % uint32(n))
}

func (c *Collector) shardFor(node string) *shard { return c.shards[c.shardOf(node)] }

func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// window returns the current queue window.
func (c *Collector) window() time.Duration { return time.Duration(c.queueWindowNs.Load()) }

// Epoch returns the collector's current state version: the sum of the
// per-shard epoch vector. It advances on every accepted probe and
// configuration change, and when a snapshot rebuild detects that a queue
// report or adjacency aged out (state changed without a probe); equal
// epochs guarantee that Snapshot returns the identical topology. See
// EpochVector for the per-shard decomposition.
func (c *Collector) Epoch() uint64 {
	var sum uint64
	for _, sh := range c.shards {
		sum += sh.epoch.Load()
	}
	return sum
}

// EpochVector returns the current composite epoch vector, one entry per
// shard. A mutation confined to one partition moves only that entry, which
// is what lets sharded deployments attribute invalidations (and tests prove
// isolation).
func (c *Collector) EpochVector() []uint64 {
	out := make([]uint64, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.epoch.Load()
	}
	return out
}

// Shards returns the number of link-state partitions.
func (c *Collector) Shards() int { return len(c.shards) }

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
	// IngestDrops counts probes dropped at the asynchronous ingest queues
	// (always zero on the synchronous path).
	IngestDrops uint64
	// TelemetryBytes is the total on-wire size of every ingested probe
	// payload (telemetry.EncodedSize) — the bytes-on-wire cost the
	// probabilistic mode exists to reduce.
	TelemetryBytes uint64
	// RecordsReassembled counts fragments merged through the probabilistic
	// reassembly stage (a subset of RecordsParsed).
	RecordsReassembled uint64
	// ReassemblyCompletions counts reassembly cycles in which every hop of
	// a stream's path reported at least once.
	ReassemblyCompletions uint64
	// ReassemblyResets counts reassembly buffers discarded because a probe
	// contradicted them (path length or device changed — the stream's
	// route moved).
	ReassemblyResets uint64
}

// Stats returns the ingestion counters.
func (c *Collector) Stats() Stats {
	st := Stats{
		ProbesReceived:        c.probesReceived.Load(),
		ProbesOutOfOrder:      c.probesOutOfOrder.Load(),
		RecordsParsed:         c.recordsParsed.Load(),
		PathRemaps:            c.pathRemaps.Load(),
		IngestDrops:           c.ingestDrops.Load(),
		TelemetryBytes:        c.telemetryBytes.Load(),
		RecordsReassembled:    c.recordsReassembled.Load(),
		ReassemblyCompletions: c.reasmCompletions.Load(),
		ReassemblyResets:      c.reasmResets.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.AdjacencyEvictions += sh.adjEvictions
		sh.mu.Unlock()
	}
	return st
}

// IngestDrops returns the number of probes dropped at the asynchronous
// ingest queues.
func (c *Collector) IngestDrops() uint64 { return c.ingestDrops.Load() }

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
	var out []ProbeStream
	for _, sh := range c.shards {
		sh.streamMu.Lock()
		for key, meta := range sh.streams {
			out = append(out, ProbeStream{
				Origin: key.origin,
				Target: key.target,
				Seq:    meta.seq,
				Age:    now - meta.at,
			})
		}
		sh.streamMu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// QueueWindow returns the configured queue-report freshness window.
func (c *Collector) QueueWindow() time.Duration { return c.window() }

// SetQueueWindow adjusts the queue-report window, typically to track a
// changed probing interval (Fig 9 sweeps). Windowed maxima of every shard
// depend on it, so every shard's epoch advances.
func (c *Collector) SetQueueWindow(w time.Duration) {
	if w <= 0 {
		return
	}
	c.queueWindowNs.Store(int64(w))
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.epoch.Add(1)
		sh.mu.Unlock()
	}
}

// SetLinkRate records the capacity of the directed link from->to. Both
// directions are set (links are full duplex and symmetric in this system);
// only the owning shards' epochs advance.
func (c *Collector) SetLinkRate(from, to netsim.NodeID, rateBps int64) {
	i, j := c.shardOf(string(from)), c.shardOf(string(to))
	if i > j {
		i, j = j, i
	}
	c.shards[i].mu.Lock()
	if j != i {
		c.shards[j].mu.Lock()
	}
	c.shardFor(string(from)).linkRate[edgeKey{string(from), string(to)}] = rateBps
	c.shardFor(string(to)).linkRate[edgeKey{string(to), string(from)}] = rateBps
	c.shards[i].epoch.Add(1)
	if j != i {
		c.shards[j].epoch.Add(1)
		c.shards[j].mu.Unlock()
	}
	c.shards[i].mu.Unlock()
}

// SetEvictionHook installs a callback observing each adjacency eviction
// (from, to, and the edge's probe silence at eviction — the detection
// latency). Called with the owning shard's lock held: the hook must not
// call back into the collector. Within one shard, evictions of one prune
// pass arrive sorted by (from, to); across shards they arrive in shard
// order.
func (c *Collector) SetEvictionHook(fn func(from, to string, silence time.Duration)) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.onEviction = fn
		sh.mu.Unlock()
	}
}

// SetReassemblyHook installs a callback observing each completed reassembly
// cycle of a probabilistic probe stream: the origin and target, the path's
// hop count, and how long the cycle took from its first fragment — the
// telemetry staleness cost of sampling, which the live daemon exports as a
// histogram. Called with the origin shard's stream lock held: the hook must
// not call back into the collector.
func (c *Collector) SetReassemblyHook(fn func(origin, target string, hops int, latency time.Duration)) {
	for _, sh := range c.shards {
		sh.streamMu.Lock()
		sh.onReassembly = fn
		sh.streamMu.Unlock()
	}
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
	sh := c.shardFor(device)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	best, found, _ := sh.queues[device][port].windowMax(now, c.window())
	return best, found
}

// LinkDelay returns the EWMA latency estimate for the directed link
// from->to, and whether any measurement exists.
func (c *Collector) LinkDelay(from, to string) (time.Duration, bool) {
	sh := c.shardFor(from)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.linkDelay[edgeKey{from, to}]
	if st == nil {
		return 0, false
	}
	return st.ewma, true
}

// LinkJitter returns the standard deviation of latency samples for the
// directed link from->to, and whether at least two samples exist.
func (c *Collector) LinkJitter(from, to string) (time.Duration, bool) {
	sh := c.shardFor(from)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := sh.linkDelay[edgeKey{from, to}]
	if st == nil || st.samples < 2 {
		return 0, false
	}
	return st.jitter(), true
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
	var out []EvictedEdge
	for _, sh := range c.shards {
		sh.mu.Lock()
		for key, at := range sh.evicted {
			out = append(out, EvictedEdge{From: key.from, To: key.to, Since: now - at})
		}
		sh.mu.Unlock()
	}
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
	for _, sh := range c.shards {
		sh.mu.Lock()
		for dev, at := range sh.lastReport {
			rep.LastSeen[dev] = at
			if now-at <= c.cfg.StaleAfter {
				rep.Fresh = append(rep.Fresh, dev)
			} else {
				rep.Stale = append(rep.Stale, dev)
			}
		}
		sh.mu.Unlock()
	}
	sortStrings(rep.Fresh)
	sortStrings(rep.Stale)
	return rep
}

func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
