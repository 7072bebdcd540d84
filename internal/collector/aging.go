package collector

import (
	"cmp"
	"slices"
	"strings"
	"time"
)

// Aging: what changes with the clock alone. Learned edges silent for longer
// than the adjacency TTL are evicted, and queue reports leave their window,
// when the next snapshot is published; a probe stream whose hop sequence
// changed puts the abandoned edges on accelerated aging so the adjacency
// converges to the new route within a couple of queue windows. Every
// function here expects the caller to hold Collector.mu.

// ageLocked ages the state to now and reports whether anything aged out.
// Neither part scans: ingest times are monotone under the lock, so the front
// of the flush-event queue is the oldest queue report still held anywhere,
// and adjacencies are looked at only once now passes adjDeadline, a lower
// bound on the earliest time one can expire.
func (c *Collector) ageLocked(now time.Duration) (aged bool) {
	if c.cur == nil || now > c.adjDeadline {
		aged = c.pruneAdjLocked(now, c.adjTTLLocked())
	}
	return c.ageQueuesLocked(now) || aged
}

// ageQueuesLocked releases the queue reports that have left the window
// ending at now and reports whether there were any. Every such report belongs
// to a flush older than the window: prune the ports of those devices, once
// each, and drop the windows — and then port slices — that emptied.
func (c *Collector) ageQueuesLocked(now time.Duration) (aged bool) {
	for cutoff := now - c.window; c.flushes.n > 0 && c.flushes.front().at < cutoff; c.flushes.pop() {
		aged = true
		d := c.flushes.front().device
		if d.agedTo >= cutoff {
			continue
		}
		d.agedTo = cutoff
		for port, w := range d.ports {
			if w == nil {
				continue
			}
			w.prune(now, c.window)
			if best := w.heldMax(); best != w.stored {
				c.storeQueueLocked(w, best)
			}
			if len(w.reports.live()) == 0 {
				d.ports[port] = nil
			}
		}
		if !slices.ContainsFunc(d.ports, func(w *portWindow) bool { return w != nil }) {
			d.ports = nil
		}
	}
	return aged
}

// expireAtLocked returns the last instant the state just aged stays as it is
// without a probe: the oldest held queue report's last instant in the window
// — exact, every flush still queued has its reports held — or adjDeadline.
func (c *Collector) expireAtLocked() time.Duration {
	if c.flushes.n > 0 {
		return min(c.adjDeadline, c.flushes.front().at+c.window)
	}
	return c.adjDeadline
}

// adjTTLLocked resolves the effective adjacency TTL: explicit, disabled, or
// derived from the current queue window.
func (c *Collector) adjTTLLocked() time.Duration {
	if c.cfg.AdjacencyTTL < 0 {
		return 0
	}
	if c.cfg.AdjacencyTTL > 0 {
		return c.cfg.AdjacencyTTL
	}
	return DefaultAdjacencyWindows * c.window
}

// accelerateAgingLocked backdates the last-seen time of every directed edge
// that the old hop sequence used and the new one does not, so those edges
// expire within two queue windows of now (never extending an edge's life).
// An edge still carrying some other stream's probes is rescued by its next
// confirmation before the accelerated deadline hits.
func (c *Collector) accelerateAgingLocked(oldPath, newPath []nodeID, now time.Duration) {
	ttl := c.adjTTLLocked()
	if ttl <= 0 {
		return
	}
	kept := make(map[edgeIDs]bool, 2*len(newPath))
	for i := 0; i+1 < len(newPath); i++ {
		kept[edgeIDs{newPath[i], newPath[i+1]}] = true
		kept[edgeIDs{newPath[i+1], newPath[i]}] = true
	}
	deadline := now - ttl + 2*c.window
	for i := 0; i+1 < len(oldPath); i++ {
		for _, key := range [2]edgeIDs{{oldPath[i], oldPath[i+1]}, {oldPath[i+1], oldPath[i]}} {
			if kept[key] {
				continue
			}
			c.backdateEdgeLocked(key, deadline)
		}
	}
}

// backdateEdgeLocked lowers one edge's last-seen time to deadline, never
// extending it.
func (c *Collector) backdateEdgeLocked(key edgeIDs, deadline time.Duration) {
	if e := c.edges[key]; e != nil && e.learned && e.seen > deadline {
		e.seen = deadline
		c.adjDeadline = min(c.adjDeadline, lastStanding(deadline, c.adjTTLLocked()))
	}
}

// lastStanding is the last instant an edge confirmed at seen is in the
// adjacency: it is evicted once seen <= now-ttl.
func lastStanding(seen, ttl time.Duration) time.Duration { return seen + ttl - 1 }

// pruneAdjLocked evicts every edge whose last confirmation is older than
// the adjacency TTL, tombstoning it and notifying the eviction hook with its
// probe silence (the failure-detection latency). Evictions are sorted by
// name, not id, so the hook sees the same order whatever order the names were
// interned in. Measured
// link-delay history is deliberately kept: if the edge comes back, its EWMA
// resumes from the last known estimate instead of cold-starting. Leaves in
// adjDeadline the last instant every surviving edge still stands, and reports
// whether it evicted any.
func (c *Collector) pruneAdjLocked(now, ttl time.Duration) (evicted bool) {
	c.adjDeadline = neverExpires
	if ttl <= 0 {
		return false
	}
	cutoff := now - ttl
	var expired []*edgeState
	for _, e := range c.edges {
		if e.learned && e.seen <= cutoff {
			expired = append(expired, e)
		} else if e.learned {
			c.adjDeadline = min(c.adjDeadline, lastStanding(e.seen, ttl))
		}
	}
	if len(expired) == 0 {
		return false
	}
	c.cur = nil
	name := func(id nodeID) string { return c.nodes.at(id).name }
	slices.SortFunc(expired, func(a, b *edgeState) int {
		return cmp.Or(strings.Compare(name(a.from), name(b.from)), strings.Compare(name(a.to), name(b.to)))
	})
	for _, e := range expired {
		silence := now - e.seen
		from := c.nodes.at(e.from)
		for port, to := range from.adj {
			if to == e.to {
				delete(from.adj, port)
			}
		}
		e.learned, e.tombstoned, e.evictedAt = false, true, now
		c.stats.AdjacencyEvictions++
		if c.onEviction != nil {
			c.onEviction(from.name, name(e.to), silence)
		}
	}
	return true
}
