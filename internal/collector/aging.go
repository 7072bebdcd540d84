package collector

import (
	"sort"
	"time"
)

// Aging: what changes with the clock alone. Learned edges silent for longer
// than the adjacency TTL are evicted, and queue reports leave their window,
// when the next snapshot is published; a probe stream whose hop sequence
// changed puts the abandoned edges on accelerated aging so the map converges
// to the new route within a couple of queue windows. Every function here
// expects the caller to hold Collector.mu.

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
// each, and drop the windows — and then the devices — that emptied.
func (c *Collector) ageQueuesLocked(now time.Duration) (aged bool) {
	for cutoff := now - c.window; c.flushes.n > 0 && c.flushes.front().at < cutoff; c.flushes.pop() {
		aged = true
		d := c.flushes.front().device
		if d.agedTo >= cutoff {
			continue
		}
		d.agedTo = cutoff
		for port, w := range d.ports {
			w.prune(now, c.window)
			if best := w.heldMax(); best != w.stored {
				c.storeQueueLocked(w, best)
			}
			if len(w.reports.live()) == 0 {
				delete(d.ports, port)
			}
		}
		if len(d.ports) == 0 {
			delete(c.queues, d.id)
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
func (c *Collector) accelerateAgingLocked(oldPath, newPath []string, now time.Duration) {
	ttl := c.adjTTLLocked()
	if ttl <= 0 {
		return
	}
	kept := make(map[edgeKey]bool, 2*len(newPath))
	for i := 0; i+1 < len(newPath); i++ {
		kept[edgeKey{newPath[i], newPath[i+1]}] = true
		kept[edgeKey{newPath[i+1], newPath[i]}] = true
	}
	deadline := now - ttl + 2*c.window
	for i := 0; i+1 < len(oldPath); i++ {
		for _, key := range [2]edgeKey{{oldPath[i], oldPath[i+1]}, {oldPath[i+1], oldPath[i]}} {
			if kept[key] {
				continue
			}
			c.backdateEdgeLocked(key, deadline)
		}
	}
}

// backdateEdgeLocked lowers one edge's last-seen time to deadline, never
// extending it.
func (c *Collector) backdateEdgeLocked(key edgeKey, deadline time.Duration) {
	if seen, ok := c.adjSeen[key]; ok && seen > deadline {
		c.adjSeen[key] = deadline
		c.adjDeadline = min(c.adjDeadline, lastStanding(deadline, c.adjTTLLocked()))
	}
}

// lastStanding is the last instant an edge confirmed at seen is in the
// adjacency: it is evicted once seen <= now-ttl.
func lastStanding(seen, ttl time.Duration) time.Duration { return seen + ttl - 1 }

// pruneAdjLocked evicts every edge whose last confirmation is older than
// the adjacency TTL, tombstoning it and notifying the eviction hook with its
// probe silence (the failure-detection latency). Eviction order is sorted
// for deterministic hook invocation. Measured
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
	var expired []edgeKey
	for key, seen := range c.adjSeen {
		if seen <= cutoff {
			expired = append(expired, key)
		} else {
			c.adjDeadline = min(c.adjDeadline, lastStanding(seen, ttl))
		}
	}
	if len(expired) == 0 {
		return false
	}
	c.cur = nil
	sort.Slice(expired, func(i, j int) bool {
		if expired[i].from != expired[j].from {
			return expired[i].from < expired[j].from
		}
		return expired[i].to < expired[j].to
	})
	for _, key := range expired {
		silence := now - c.adjSeen[key]
		delete(c.adjSeen, key)
		if ports := c.adj[key.from]; ports != nil {
			for port, to := range ports {
				if to == key.to {
					delete(ports, port)
				}
			}
			if len(ports) == 0 {
				delete(c.adj, key.from)
			}
		}
		c.stats.AdjacencyEvictions++
		c.evicted[key] = now
		if c.onEviction != nil {
			c.onEviction(key.from, key.to, silence)
		}
	}
	return true
}
