package collector

import (
	"sort"
	"time"
)

// Adjacency aging: learned edges silent for longer than the adjacency TTL
// are evicted at the next snapshot rebuild, and a probe stream whose hop
// sequence changed puts the abandoned edges on accelerated aging so the map
// converges to the new route within a couple of queue windows. Every
// function here expects the caller to hold Collector.mu.

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
	}
}

// pruneAdjLocked evicts every edge whose last confirmation is older than
// the adjacency TTL, tombstoning it and notifying the eviction hook with its
// probe silence (the failure-detection latency). Eviction order is sorted
// for deterministic hook invocation. Measured
// link-delay history is deliberately kept: if the edge comes back, its EWMA
// resumes from the last known estimate instead of cold-starting. Returns
// the earliest deadline at which a surviving edge would expire.
func (c *Collector) pruneAdjLocked(now, ttl time.Duration) (earliestDeadline time.Duration) {
	earliestDeadline = neverExpires
	if ttl <= 0 {
		return earliestDeadline
	}
	cutoff := now - ttl
	var expired []edgeKey
	for key, seen := range c.adjSeen {
		if seen <= cutoff {
			expired = append(expired, key)
		} else if d := seen + ttl; d < earliestDeadline {
			earliestDeadline = d
		}
	}
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
	return earliestDeadline
}
