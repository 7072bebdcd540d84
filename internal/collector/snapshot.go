package collector

import (
	"math"
	"slices"
	"time"
)

// Snapshot publication. A snapshot is an immutable Topology built in one
// pass from the collector's state maps — the sorted node/host index, the CSR
// adjacency, and one metric slot per edge direction (arena.go) — and
// published through an atomic pointer. It is served without the lock until
// the epoch moves or something in it ages out.

// neverExpires marks snapshots with no in-window queue reports and no
// adjacency deadline; they stay valid until the epoch advances.
const neverExpires = time.Duration(math.MaxInt64)

// edgeMetrics is the resolved measurement state of one directed edge: what
// one arena slot holds.
type edgeMetrics struct {
	// delay / jitter are the latency EWMA and standard deviation; delayOK
	// is false for a direction never measured.
	delay, jitter time.Duration
	// rate is the configured capacity, or the collector default.
	rate int64
	// queue is the windowed maximum occupancy of the egress port feeding
	// the edge; queueOK is false without an in-window report.
	queue   int32
	delayOK bool
	queueOK bool
}

// Snapshot returns the current learned topology and link state. The
// returned Topology is immutable and shared: repeated calls return the
// identical pointer until a state-mutating probe/report advances the epoch.
// An in-window queue report or adjacency aging out also triggers a rebuild —
// the windowed maxima or adjacency changed without a new probe — and
// advances the epoch itself, so a rebuilt snapshot is never published under
// the epoch of a superseded one and epoch-keyed caches downstream
// (core.RankCache) invalidate instead of serving rankings computed from the
// stale state. The fast path is lock-free, so any number of concurrent
// readers can query while probes are being ingested.
func (c *Collector) Snapshot() *Topology {
	now := c.clock()
	if t := c.snap.Load(); t != nil && t.epoch == c.epoch.Load() && now <= t.expireAt {
		return t
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	epoch := c.epoch.Load()
	if t := c.snap.Load(); t != nil && t.epoch == epoch {
		if now <= t.expireAt {
			return t // another reader rebuilt it while we waited
		}
		epoch = c.epoch.Add(1)
	}
	t := c.buildLocked(now, epoch)
	c.snap.Store(t)
	return t
}

// resolveLocked reads one directed edge's delay history and capacity.
func (c *Collector) resolveLocked(k edgeKey) edgeMetrics {
	m := edgeMetrics{rate: c.cfg.DefaultLinkRateBps}
	if st := c.linkDelay[k]; st != nil {
		m.delay, m.jitter, m.delayOK = st.ewma, st.jitter(), true
	}
	if rate, ok := c.linkRate[k]; ok {
		m.rate = rate
	}
	return m
}

// buildLocked ages the state to now and builds the Topology of it. Aged-out
// adjacencies are evicted here, right before the build, so an eviction
// becomes visible exactly when a snapshot is (re)built — and because
// expiry-triggered rebuilds advance the epoch (see Snapshot), a
// post-eviction snapshot is never published under a pre-eviction epoch.
func (c *Collector) buildLocked(now time.Duration, epoch uint64) *Topology {
	expireAt := c.pruneAdjLocked(now, c.adjTTLLocked())
	// Queue windows: the snapshot goes stale when the oldest in-window
	// report ages out. Windows that emptied are dropped here, and with them
	// devices that fell silent — ingest prunes only the ports it pushes to.
	for device, ports := range c.queues {
		for port, pw := range ports {
			_, found, exp := pw.windowMax(now, c.window)
			if !found {
				delete(ports, port)
				continue
			}
			pw.prune(now, c.window)
			if exp < expireAt {
				expireAt = exp
			}
		}
		if len(ports) == 0 {
			delete(c.queues, device)
		}
	}

	present := make(map[string]bool, len(c.adj))
	for from, ports := range c.adj {
		present[from] = true
		for _, to := range ports {
			present[to] = true
		}
	}
	t := &Topology{
		Nodes:       sortedKeys(present),
		hostList:    sortedKeys(c.isHost),
		defaultRate: c.cfg.DefaultLinkRateBps,
		TakenAt:     now,
		epoch:       epoch,
		expireAt:    expireAt,
		store:       c.spt,
	}
	n := len(t.Nodes)
	t.nodeIndex = make(map[string]int32, n)
	for i, name := range t.Nodes {
		t.nodeIndex[name] = int32(i)
	}

	// Rows: each node's neighbors in index (= name) order, with the egress
	// port behind each. egress is in CSR edge order once the rows are laid
	// end to end, which is what initArena does.
	type hop struct {
		to   int32
		port int
	}
	t.nbrIdx = make([][]int32, n)
	t.hostFlag = make([]bool, n)
	var egress []int // unit:[edge]
	var row []hop
	for i, name := range t.Nodes {
		t.hostFlag[i] = c.isHost[name]
		row = row[:0]
		for port, to := range c.adj[name] {
			row = append(row, hop{t.nodeIndex[to], port})
		}
		if len(row) == 0 {
			continue
		}
		slices.SortFunc(row, func(a, b hop) int {
			if a.to != b.to {
				return int(a.to - b.to)
			}
			return a.port - b.port
		})
		idx := make([]int32, 0, len(row))
		for j, h := range row {
			if j == 0 || h.to != row[j-1].to {
				idx = append(idx, h.to)
				egress = append(egress, h.port)
			}
		}
		t.nbrIdx[i] = idx
	}
	t.initArena()

	// Forward slots: the edge's own delay history and rate, and the queue
	// of the egress port behind it.
	for u := range t.Nodes {
		for e := t.edgeStart[u]; e < t.edgeStart[u+1]; e++ {
			m := c.resolveLocked(edgeKey{t.Nodes[u], t.Nodes[t.nbrFlat[e]]})
			if best, found, _ := c.queues[t.Nodes[u]][egress[e]].windowMax(now, c.window); found {
				m.queue, m.queueOK = int32(best), true
			}
			t.slots[2*e] = m
		}
	}
	// Reverse slots: the opposite adjacency's forward slot while it exists;
	// otherwise that direction's delay history and configured rate, which
	// outlive eviction (see pruneAdjLocked) and can precede learning — but
	// no queue: there is no egress port behind an edge not in the adjacency.
	for u := range t.Nodes {
		for e := t.edgeStart[u]; e < t.edgeStart[u+1]; e++ {
			v := t.nbrFlat[e]
			if r := t.csrEdge(v, int32(u)); r >= 0 {
				t.slots[2*e+1] = t.slots[2*r]
			} else {
				t.slots[2*e+1] = c.resolveLocked(edgeKey{t.Nodes[v], t.Nodes[u]})
			}
		}
	}
	t.seq = c.spt.advance(t.Nodes, t.nbrIdx, t.hostFlag)
	return t
}
