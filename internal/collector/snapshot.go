package collector

import (
	"math"
	"slices"
	"time"
)

// Snapshot publication. A snapshot is an immutable Topology: the current
// structure — the sorted node/host index and the CSR adjacency, shared with
// every other snapshot of the same adjacency — and a copy of the live metric
// slots (arena.go), published through an atomic pointer. It is served without
// the lock until the epoch moves or something in it ages out. Publishing
// costs what changed plus one copy of the slots; only a change to the
// adjacency or the host set pays for a rebuild of the structure.

// neverExpires marks snapshots with no in-window queue reports and no
// adjacency deadline; they stay valid until the epoch advances.
const neverExpires = time.Duration(math.MaxInt64)

// edgeMetrics is the resolved measurement state of one directed edge: what
// one arena slot holds.
type edgeMetrics struct {
	// delay is the latency EWMA; delayOK is false for a direction never
	// measured.
	delay time.Duration
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
// An in-window queue report or adjacency aging out also triggers a new
// snapshot — the windowed maxima or adjacency changed without a new probe —
// and advances the epoch itself, so what aged out is never republished under
// the epoch of the snapshot that still held it and epoch-keyed caches
// downstream (core.RankCache) invalidate instead of serving rankings computed
// from the stale state. The fast path is lock-free, so any number of
// concurrent readers can query while probes are being ingested.
func (c *Collector) Snapshot() *Topology {
	now := c.clock()
	if t := c.snap.Load(); t != nil && t.epoch == c.epoch.Load() && now <= t.expireAt {
		return t
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	epoch := c.epoch.Load()
	t := c.snap.Load()
	current := t != nil && t.epoch == epoch
	if current && now <= t.expireAt {
		return t // another reader published it while we waited
	}
	aged := c.ageLocked(now)
	if current {
		if !aged {
			// expireAt was the adjacency bound and every edge has been
			// confirmed since it was taken: t is still the state.
			return t
		}
		epoch = c.epoch.Add(1)
	}
	if c.cur == nil {
		c.rebuildLocked(now)
	}
	t = &Topology{
		structure:   c.cur,
		slots:       indexed[Slot, edgeMetrics]{slices.Clone(c.live.s)},
		defaultRate: c.cfg.DefaultLinkRateBps,
		TakenAt:     now,
		epoch:       epoch,
		expireAt:    c.expireAtLocked(),
		store:       c.spt,
	}
	c.stats.SnapshotPublishes++
	c.snap.Store(t)
	return t
}

// rebuildLocked builds the structure of the adjacency and host set as they
// stand — already aged, so an eviction becomes visible exactly when a
// snapshot is published — and refills the live slots from the state maps.
func (c *Collector) rebuildLocked(now time.Duration) {
	c.stats.StructureRebuilds++
	present := make(map[string]bool, len(c.adj))
	for from, ports := range c.adj {
		present[from] = true
		for _, to := range ports {
			present[to] = true
		}
	}
	s := newStructure(sortedKeys(present), sortedKeys(c.isHost))

	// Rows: each node's neighbors in index (= name) order, with the egress
	// port behind each — the lowest-numbered of parallel ports. egress is in
	// CSR edge order once flatten lays the rows end to end.
	type hop struct {
		to   NodeIdx
		port int
	}
	var row []hop
	for i, name := range s.Nodes {
		s.hostFlag.s[i] = c.isHost[name]
		row = row[:0]
		for port, to := range c.adj[name] {
			row = append(row, hop{s.nodeIndex[to], port})
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
		idx := make([]NodeIdx, 0, len(row))
		for j, h := range row {
			if j == 0 || h.to != row[j-1].to {
				idx = append(idx, h.to)
				s.egress.s = append(s.egress.s, h.port)
			}
		}
		s.nbrIdx.s[i] = idx
	}
	s.flatten()
	s.seq = c.spt.advance(s.Nodes, s.nbrIdx, s.hostFlag.s)

	c.cur = s
	c.live = indexed[Slot, edgeMetrics]{make([]edgeMetrics, 2*len(s.nbrFlat.s))}
	c.refillLocked(c.live, now)
}

// refillLocked fills slots, laid out by c.cur, from the state maps, and
// stamps every linkState and portWindow with where it is held from now on.
func (c *Collector) refillLocked(slots indexed[Slot, edgeMetrics], now time.Duration) {
	for _, st := range c.linkDelay {
		st.slotPair = noSlots
	}
	for _, d := range c.queues {
		for _, w := range d.ports {
			w.slotPair = noSlots
		}
	}
	// resolve reads one direction's delay history and capacity, and stamps
	// the history with at.
	resolve := func(k edgeKey, at slotPair) edgeMetrics {
		m := edgeMetrics{rate: c.cfg.DefaultLinkRateBps}
		if st := c.linkDelay[k]; st != nil {
			st.slotPair = at
			m.delay, m.delayOK = st.ewma, true
		}
		if rate, ok := c.linkRate[k]; ok {
			m.rate = rate
		}
		return m
	}
	s := c.cur
	for u := range NodeIdx(len(s.Nodes)) {
		name := s.Nodes[u]
		for e := s.edgeStart.at(u); e < s.edgeStart.at(u+1); e++ {
			v := s.nbrFlat.at(e)
			at := s.edgeSlots(u, v)
			// Forward slot: the edge's own delay history and rate, and the
			// queue of the egress port behind it; mirrored in the opposite
			// edge's reverse slot while that adjacency exists.
			m := resolve(edgeKey{name, s.Nodes[v]}, at)
			if w := c.queues[name].window(s.egress.at(e)); w != nil {
				w.slotPair, w.stored = at, -1
				if best, found, _ := w.windowMax(now, c.window); found {
					w.stored = int32(best)
					m.queue, m.queueOK = w.stored, true
				}
			}
			*slots.ref(at.fwd) = m
			if at.rev >= 0 {
				*slots.ref(at.rev) = m
				continue
			}
			// No opposite adjacency: this edge's reverse slot holds that
			// direction's delay history and configured rate, which outlive
			// eviction (see pruneAdjLocked) and can precede learning — but no
			// queue: there is no egress port behind an edge not in the
			// adjacency.
			rev := Slot(2*e + 1)
			*slots.ref(rev) = resolve(edgeKey{s.Nodes[v], name}, slotPair{fwd: -1, rev: rev})
		}
	}
}
