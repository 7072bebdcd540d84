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
// downstream (core's rank cache) invalidate instead of serving rankings
// computed from the stale state. The fast path is lock-free, so any number of
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
		takenAt:     now,
		epoch:       epoch,
		expireAt:    c.expireAtLocked(),
	}
	c.stats.SnapshotPublishes++
	c.snap.Store(t)
	return t
}

// rebuildLocked builds the structure of the adjacency and host set as they
// stand — already aged, so an eviction becomes visible exactly when a
// snapshot is published — and refills the live slots from the tables.
func (c *Collector) rebuildLocked(now time.Duration) {
	c.stats.StructureRebuilds++
	present := make([]bool, len(c.nodes.s))
	var names, hosts []string
	for id, n := range c.nodes.s {
		n.idx = -1
		if n.host {
			hosts = append(hosts, n.name)
		}
		for _, to := range n.adj {
			present[id], present[to] = true, true
		}
	}
	for id, ok := range present {
		if ok {
			names = append(names, c.nodes.s[id].name)
		}
	}
	slices.Sort(names)
	slices.Sort(hosts)
	s := newStructure(names, hosts)
	order := make([]nodeID, len(names))
	for i, name := range names {
		order[i] = c.ids[name]
		c.nodes.at(order[i]).idx = NodeIdx(i)
	}

	// Rows: each node's neighbors in index (= name) order, with the egress
	// port behind each — the lowest-numbered of parallel ports. egress is in
	// CSR edge order once flatten lays the rows end to end.
	type hop struct {
		to   NodeIdx
		port int
	}
	var row []hop
	for i, id := range order {
		n := c.nodes.at(id)
		s.hostFlag.s[i] = n.host
		row = row[:0]
		for port, to := range n.adj {
			row = append(row, hop{c.nodes.at(to).idx, port})
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

	c.cur, c.order = s, indexed[NodeIdx, nodeID]{order}
	c.live = indexed[Slot, edgeMetrics]{make([]edgeMetrics, 2*len(s.nbrFlat.s))}
	c.refillLocked(c.live, now)
}

// refillLocked fills slots, laid out by c.cur, from the tables, and stamps
// every edgeState and portWindow with where it is held from now on.
func (c *Collector) refillLocked(slots indexed[Slot, edgeMetrics], now time.Duration) {
	for _, e := range c.edges {
		e.slotPair = noSlots
	}
	for _, n := range c.nodes.s {
		for _, w := range n.ports {
			if w != nil {
				w.slotPair = noSlots
			}
		}
	}
	// resolve reads one direction's delay history and capacity, and stamps
	// the edge with at.
	resolve := func(from, to nodeID, at slotPair) edgeMetrics {
		m := edgeMetrics{rate: c.cfg.DefaultLinkRateBps}
		if e := c.edges[edgeIDs{from, to}]; e != nil {
			e.slotPair = at
			if e.delay.samples > 0 {
				m.delay, m.delayOK = e.delay.ewma, true
			}
			if e.rateSet {
				m.rate = e.rate
			}
		}
		return m
	}
	s := c.cur
	for u := range NodeIdx(len(s.nodes)) {
		uid := c.order.at(u)
		for e := s.edgeStart.at(u); e < s.edgeStart.at(u+1); e++ {
			v := s.nbrFlat.at(e)
			vid := c.order.at(v)
			at := s.edgeSlots(u, v)
			// Forward slot: the edge's own delay history and rate, and the
			// queue of the egress port behind it; mirrored in the opposite
			// edge's reverse slot while that adjacency exists.
			m := resolve(uid, vid, at)
			if w := c.nodes.at(uid).window(s.egress.at(e)); w != nil {
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
			*slots.ref(rev) = resolve(vid, uid, slotPair{fwd: -1, rev: rev})
		}
	}
}
