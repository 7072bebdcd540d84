package collector

import (
	"math"
	"sort"
	"time"
)

// Snapshot construction. Each shard lazily materializes an immutable
// shardView of its owned state, cached per shard and rebuilt only when that
// shard's epoch moved or the view expired (a queue report aged out of the
// window, or an adjacency hit its TTL). The global Snapshot() is a
// merge-on-read: it composes the per-shard views into one Topology — the
// merged node/host index, the CSR adjacency, and one metric slot per edge
// direction, copied straight out of the owning view's rows (arena.go). A
// snapshot is versioned by the composite epoch vector — one counter per
// shard — so a mutation in one partition invalidates only that shard's
// view; the other shards' views are reused as-is.

// neverExpires marks views with no in-window queue reports and no adjacency
// deadline; they stay valid until the epoch advances.
const neverExpires = time.Duration(math.MaxInt64)

// edgeMetrics is the resolved measurement state of one directed edge: what
// a shard view records per adjacency and what one arena slot holds.
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

// viewRow is one owned from-node's adjacency: its sorted neighbor IDs and,
// index-aligned, the metrics of each from->neighbor edge.
type viewRow struct {
	nbrs  []string
	edges []edgeMetrics
}

// shardView is one shard's immutable state view.
type shardView struct {
	// epoch is the shard epoch the view was built at.
	epoch uint64
	// expireAt is the earliest time the view goes stale without new probes
	// (queue-report or adjacency-TTL expiry; neverExpires if none).
	expireAt time.Duration
	// present lists every node appearing in the shard's owned adjacency
	// (from- and to-sides), sorted.
	present []string
	// rows maps owned from-nodes to their adjacency rows.
	rows map[string]viewRow
	// offAdj holds the delay history and configured rate of owned edges
	// that are not in the adjacency (aged out, or configured before being
	// learned). Merge reads it for reverse slots; there is no egress port
	// behind such an edge, so entries carry no queue value.
	offAdj map[edgeKey]edgeMetrics
	// hostList lists owned hosts, sorted.
	hostList []string
}

// mergedSnap is the atomically published merged snapshot together with its
// validity bounds.
type mergedSnap struct {
	topo     *Topology
	vector   []uint64
	expireAt time.Duration
}

// Snapshot returns the current learned topology and link state. The
// returned Topology is immutable and shared: repeated calls return the
// identical pointer until a state-mutating probe/report advances some
// shard's epoch. An in-window queue report or adjacency aging out also
// triggers a rebuild of the affected shard's view — the windowed maxima or
// adjacency changed without a new probe — and advances that shard's epoch
// itself, so a rebuilt snapshot is never published under the epoch vector
// of a superseded one. The fast path is lock-free, so any number of
// concurrent readers can query while probes are being ingested.
func (c *Collector) Snapshot() *Topology {
	now := c.clock()
	if s := c.snap.Load(); s != nil && now <= s.expireAt && c.vectorCurrent(s.vector) {
		return s.topo
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	views := make([]*shardView, len(c.shards))
	vector := make([]uint64, len(c.shards))
	expireAt := neverExpires
	for i, sh := range c.shards {
		v := sh.freshView(c, now)
		views[i] = v
		vector[i] = v.epoch
		if v.expireAt < expireAt {
			expireAt = v.expireAt
		}
	}
	// Double-check under the lock: another goroutine may have merged the
	// same vector already.
	if s := c.snap.Load(); s != nil && vectorEqual(s.vector, vector) {
		return s.topo
	}
	topo := c.merge(views, vector, now)
	c.snap.Store(&mergedSnap{topo: topo, vector: vector, expireAt: expireAt})
	return topo
}

// vectorCurrent reports whether vec matches every shard's live epoch.
func (c *Collector) vectorCurrent(vec []uint64) bool {
	for i, sh := range c.shards {
		if sh.epoch.Load() != vec[i] {
			return false
		}
	}
	return true
}

func vectorEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// freshView returns the shard's current view, rebuilding it if the shard's
// epoch moved or the cached view expired. An expiry-only rebuild (queue
// report aged out, adjacency TTL hit, with no probe in between) advances
// the shard's epoch so the rebuilt view is distinguishable from the expired
// one and epoch-keyed caches downstream (core.RankCache) invalidate instead
// of serving rankings computed from the stale state.
func (sh *shard) freshView(c *Collector, now time.Duration) *shardView {
	if v := sh.view.Load(); v != nil && v.epoch == sh.epoch.Load() && now <= v.expireAt {
		return v
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	epoch := sh.epoch.Load()
	if v := sh.view.Load(); v != nil && v.epoch == epoch {
		if now <= v.expireAt {
			return v
		}
		epoch = sh.epoch.Add(1)
	}
	v := sh.buildViewLocked(c, now, epoch)
	sh.view.Store(v)
	return v
}

// buildViewLocked copies the shard's owned state into a fresh immutable
// view. Aged-out adjacencies are evicted here, right before the copy, so an
// eviction becomes visible exactly when a view is (re)built — and because
// expiry-triggered rebuilds advance the shard epoch (see freshView), a
// post-eviction view is never published under a pre-eviction epoch.
func (sh *shard) buildViewLocked(c *Collector, now time.Duration, epoch uint64) *shardView {
	window := c.window()
	expireAt := sh.pruneAdjLocked(now, c.adjTTL())
	// Queue windows: the view goes stale when the oldest in-window report
	// ages out. Windows that emptied are dropped here, and with them devices
	// that fell silent — ingest prunes only the ports it pushes to.
	for device, ports := range sh.queues {
		for port, pw := range ports {
			_, found, exp := pw.windowMax(now, window)
			if !found {
				delete(ports, port)
				continue
			}
			pw.prune(now, window)
			if exp < expireAt {
				expireAt = exp
			}
		}
		if len(ports) == 0 {
			delete(sh.queues, device)
		}
	}
	v := &shardView{epoch: epoch, rows: make(map[string]viewRow, len(sh.adj))}
	// resolve reads an owned edge's delay history and capacity.
	resolve := func(k edgeKey) (m edgeMetrics, rated bool) {
		if st := sh.linkDelay[k]; st != nil {
			m.delay, m.jitter, m.delayOK = st.ewma, st.jitter(), true
		}
		if m.rate, rated = sh.linkRate[k]; !rated {
			m.rate = c.cfg.DefaultLinkRateBps
		}
		return m, rated
	}
	nodeSet := make(map[string]bool)
	egress := make(map[string]int) // neighbor -> egress port of one from-node
	measured, rated := 0, 0        // adjacency edges with delay history / a configured rate
	for from, ports := range sh.adj {
		nodeSet[from] = true
		clear(egress)
		for port, to := range ports {
			nodeSet[to] = true
			egress[to] = port
		}
		row := viewRow{nbrs: make([]string, 0, len(egress)), edges: make([]edgeMetrics, len(egress))}
		for to := range egress {
			row.nbrs = append(row.nbrs, to)
		}
		sort.Strings(row.nbrs)
		for j, to := range row.nbrs {
			m, isRated := resolve(edgeKey{from, to})
			if m.delayOK {
				measured++
			}
			if isRated {
				rated++
			}
			if best, found, _ := sh.queues[from][egress[to]].windowMax(now, window); found {
				m.queue, m.queueOK = int32(best), true
			}
			row.edges[j] = m
		}
		v.rows[from] = row
	}
	// Measured link-delay history outlives adjacency eviction (see
	// pruneAdjLocked) and rates can be configured before an edge is
	// learned; the counts say whether any such edge exists.
	if measured < len(sh.linkDelay) || rated < len(sh.linkRate) {
		v.offAdj = make(map[edgeKey]edgeMetrics)
		keep := func(k edgeKey) {
			if !containsSorted(v.rows[k.from].nbrs, k.to) {
				v.offAdj[k], _ = resolve(k)
			}
		}
		for k := range sh.linkDelay {
			keep(k)
		}
		for k := range sh.linkRate {
			keep(k)
		}
	}
	for n := range nodeSet {
		v.present = append(v.present, n)
	}
	sort.Strings(v.present)
	for h := range sh.isHost {
		v.hostList = append(v.hostList, h)
	}
	sort.Strings(v.hostList)
	v.expireAt = expireAt
	return v
}

// merge composes per-shard views into one immutable Topology: the merged
// sorted node/host index, the neighbor index arrays the path trees run on,
// and the metric arena. The merged structure is registered with the
// incremental SPT store (diffed against the previous merge to version path
// trees).
func (c *Collector) merge(views []*shardView, vector []uint64, now time.Duration) *Topology {
	total, hostTotal := 0, 0
	for _, v := range views {
		total += len(v.present)
		hostTotal += len(v.hostList)
	}
	nodes := make([]string, 0, total)
	hosts := make([]string, 0, hostTotal)
	for _, v := range views {
		nodes = append(nodes, v.present...)
		hosts = append(hosts, v.hostList...)
	}
	sort.Strings(nodes)
	nodes = dedupSorted(nodes)
	sort.Strings(hosts)
	hosts = dedupSorted(hosts)

	t := &Topology{
		Nodes:       nodes,
		hostList:    hosts,
		defaultRate: c.cfg.DefaultLinkRateBps,
		TakenAt:     now,
		vector:      vector,
		store:       c.spt,
	}
	for _, e := range vector {
		t.epoch += e
	}
	t.nodeIndex = make(map[string]int32, len(nodes))
	for i, n := range nodes {
		t.nodeIndex[n] = int32(i)
	}
	t.nbrIdx = make([][]int32, len(nodes))
	t.hostFlag = make([]bool, len(nodes))
	rows := make([]viewRow, len(nodes)) // unit:[node]
	for i, n := range nodes {
		t.hostFlag[i] = containsSorted(hosts, n)
		row := views[c.shardOf(n)].rows[n]
		if len(row.nbrs) == 0 {
			continue
		}
		rows[i] = row
		idx := make([]int32, len(row.nbrs))
		for j, nb := range row.nbrs {
			idx[j] = t.nodeIndex[nb]
		}
		t.nbrIdx[i] = idx
	}
	t.initArena()
	// Row j of node u is CSR edge edgeStart[u]+j (both are in neighbor-name
	// order), so forward slots are the view rows verbatim.
	for u, row := range rows {
		for j, m := range row.edges {
			e := t.edgeStart[u] + int32(j)
			t.slots[2*e] = m
			v := t.nbrFlat[e]
			if r := t.csrEdge(v, int32(u)); r >= 0 {
				t.slots[2*e+1] = rows[v].edges[r-t.edgeStart[v]]
			} else if m, ok := views[c.shardOf(nodes[v])].offAdj[edgeKey{nodes[v], nodes[u]}]; ok {
				t.slots[2*e+1] = m
			} else {
				t.slots[2*e+1] = edgeMetrics{rate: t.defaultRate}
			}
		}
	}
	t.seq = c.spt.advance(nodes, t.nbrIdx, t.hostFlag)
	return t
}

// dedupSorted removes adjacent duplicates from a sorted slice, in place.
func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// containsSorted reports whether sorted xs contains x.
func containsSorted(xs []string, x string) bool {
	i := sort.SearchStrings(xs, x)
	return i < len(xs) && xs[i] == x
}
