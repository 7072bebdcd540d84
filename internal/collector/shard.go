package collector

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"intsched/internal/telemetry"
)

// shard is one partition of the collector's link-state database. Ownership
// is by key, not by probe: the directed edge (from, to) — adjacency,
// last-seen time, tombstone, delay EWMA, and rate override — lives in the
// shard owning from; per-device state (queue reports, last-report time)
// lives in the shard owning the device; host flags live in the shard owning
// the node; probe-stream metadata lives in the shard owning the origin.
// A probe that traverses several partitions therefore touches several
// shards, and HandleProbe locks exactly the owners of the nodes on the hop
// sequence so concurrent probes through disjoint partitions never contend.
//
// Lock-order invariant (mechanically enforced by the shardlock analyzer in
// internal/lint): the order key is the shard index — the shard's position
// in Collector.shards, as computed by shardOf. A goroutine may hold at most
// one streamMu, acquired strictly before any mu and never while holding
// one. Multiple mu may be held simultaneously only when acquired in
// ascending shard-index order: HandleProbe and reassembleProbe sort and
// deduplicate the index set first (sort.Ints) and lock in a single forward
// sweep; pairwise lockers such as SetLinkRate swap the two indices into
// ascending order before locking (skipping the second Lock when both keys
// land in one shard); iterators like Stats hold one mu at a time. Unlock
// order is unconstrained — reverse order is the convention. Helpers named
// *Locked acquire nothing and rely on the caller's locks.
type shard struct {
	// mu guards all owned link-state below (everything except the stream
	// fields, which streamMu guards). See the lock-order invariant on the
	// type comment before acquiring more than one.
	mu sync.Mutex

	// adj maps device -> egress port -> neighbor for owned from-nodes.
	adj map[string]map[int]string
	// adjSeen maps each owned directed edge to its last confirmation time.
	adjSeen map[edgeKey]time.Duration
	// evicted tombstones owned edges removed by aging.
	evicted map[edgeKey]time.Duration
	// isHost marks owned nodes known to be hosts.
	isHost map[string]bool
	// linkDelay and linkRate hold per-edge measurement state for owned
	// edges (keyed by the edge's from node).
	linkDelay map[edgeKey]*linkState
	linkRate  map[edgeKey]int64
	// queues holds per-device, per-port queue windows for owned devices.
	// Each port's window carries a monotonic deque so view rebuilds read the
	// windowed max off the deque front (see queuewindow.go). View builds drop
	// the windows, and then the devices, whose last report aged out.
	queues map[string]map[int]*portWindow
	// lastReport maps owned devices to their last INT record time.
	lastReport map[string]time.Duration
	// onEviction observes adjacency evictions of owned edges.
	onEviction   func(from, to string, silence time.Duration)
	adjEvictions uint64

	// epoch versions this shard's owned state. Bumped (under mu) on every
	// accepted probe touching the shard, on configuration changes, and on
	// expiry-triggered view rebuilds. The collector's composite epoch
	// vector is the per-shard epochs side by side.
	epoch atomic.Uint64
	// view is the shard's cached immutable state view, rebuilt lazily when
	// the epoch moves or the view expires (see snapshot.go).
	view atomic.Pointer[shardView]

	// streamMu guards probe-stream state for origins owned by this shard.
	// It sits above every mu in the lock order: a goroutine acquires at
	// most one streamMu (the origin shard's — ingest is serialized per
	// origin), always before any shard's mu and never while holding one.
	// One stream lock plus an ascending mu sweep cannot deadlock: stream
	// locks never nest, and the mu level is totally ordered by shard index.
	streamMu sync.Mutex
	streams  map[probeKey]probeMeta
	// reasm holds per-stream reassembly buffers for probabilistic probes
	// originating in this shard (lazily created; guarded by streamMu, like
	// the stream metadata — the owning shard of the reassembly state is
	// the origin's shard by construction).
	reasm map[probeKey]*reasmState
	// onReassembly observes completed reassembly cycles of streams
	// originating in this shard (guarded by streamMu).
	onReassembly func(origin, target string, hops int, latency time.Duration)
	// pathScratch and lockScratch are reusable HandleProbe buffers,
	// guarded by streamMu (one probe per origin shard at a time).
	pathScratch []string
	lockScratch []int
}

func newShard() *shard {
	return &shard{
		adj:        make(map[string]map[int]string),
		adjSeen:    make(map[edgeKey]time.Duration),
		evicted:    make(map[edgeKey]time.Duration),
		isHost:     make(map[string]bool),
		linkDelay:  make(map[edgeKey]*linkState),
		linkRate:   make(map[edgeKey]int64),
		queues:     make(map[string]map[int]*portWindow),
		lastReport: make(map[string]time.Duration),
		streams:    make(map[probeKey]probeMeta),
	}
}

// learnEdgeLocked records the directed adjacency from --(port)--> to.
func (sh *shard) learnEdgeLocked(from string, port int, to string, now time.Duration) {
	m := sh.adj[from]
	if m == nil {
		m = make(map[int]string)
		sh.adj[from] = m
	}
	m[port] = to
	sh.adjSeen[edgeKey{from, to}] = now
	delete(sh.evicted, edgeKey{from, to})
}

// updateDelayLocked folds one latency sample into the edge's EWMA and
// Welford jitter accumulators.
func (sh *shard) updateDelayLocked(k edgeKey, sample time.Duration, now time.Duration, alpha float64) {
	if sample <= 0 {
		return
	}
	st := sh.linkDelay[k]
	if st == nil {
		st = &linkState{ewma: sample}
		sh.linkDelay[k] = st
	} else {
		st.ewma = time.Duration(alpha*float64(sample) + (1-alpha)*float64(st.ewma))
	}
	st.lastSample = sample
	st.samples++
	st.updatedAt = now
	delta := float64(sample) - st.mean
	st.mean += delta / float64(st.samples)
	st.m2 += delta * (float64(sample) - st.mean)
}

// pushQueuesLocked records the queue registers one device flushed at now.
// Pushing onto a port prunes that port and no other: ports the record does
// not report are pruned when a view is built (buildViewLocked).
func (sh *shard) pushQueuesLocked(device string, queues []telemetry.PortQueue, now, window time.Duration) {
	if len(queues) == 0 {
		return
	}
	ports := sh.queues[device]
	if ports == nil {
		ports = make(map[int]*portWindow)
		sh.queues[device] = ports
	}
	for _, q := range queues {
		w := ports[q.Port]
		if w == nil {
			w = &portWindow{}
			ports[q.Port] = w
		}
		w.push(queueReport{at: now, maxQueue: q.MaxQueue})
		w.prune(now, window)
	}
}

// windowedQueueMax scans one port's reports and returns the maximum queue
// occupancy among in-window reports, whether any report is in the window,
// and the earliest time an in-window report ages out (neverExpires if none)
// — the moment a cached view built from these reports must be rebuilt. It
// defines the queue-window cutoff/boundary rule; the hot paths read the
// same answer off portWindow's monotonic deque (queuewindow.go), and
// TestPortWindowMatchesScan holds the two equal.
func windowedQueueMax(reports []queueReport, now, window time.Duration) (best int, found bool, expireAt time.Duration) {
	expireAt = neverExpires
	cutoff := now - window
	for i := range reports {
		if reports[i].at < cutoff {
			continue
		}
		found = true
		if reports[i].maxQueue > best {
			best = reports[i].maxQueue
		}
		if e := reports[i].at + window; e < expireAt {
			expireAt = e
		}
	}
	return best, found, expireAt
}

type linkState struct {
	ewma       time.Duration
	lastSample time.Duration
	samples    uint64
	updatedAt  time.Duration
	// Welford accumulators for jitter (sample standard deviation); the
	// paper probes link latency periodically precisely "to capture jitter
	// characteristics".
	mean float64
	m2   float64
}

// jitter returns the sample standard deviation of link latency.
func (st *linkState) jitter() time.Duration {
	if st.samples < 2 {
		return 0
	}
	return time.Duration(math.Sqrt(st.m2 / float64(st.samples-1)))
}
