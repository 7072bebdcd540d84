package collector

import (
	"math"
	"time"

	"intsched/internal/telemetry"
)

// Mutations of the link state. Every function here expects the caller to
// hold Collector.mu.

// learnEdgeLocked records the directed adjacency from --(port)--> to.
func (c *Collector) learnEdgeLocked(from string, port int, to string, now time.Duration) {
	m := c.adj[from]
	if m == nil {
		m = make(map[int]string)
		c.adj[from] = m
	}
	m[port] = to
	c.adjSeen[edgeKey{from, to}] = now
	delete(c.evicted, edgeKey{from, to})
}

// sampleLinkLocked folds one latency sample of the link a-b (zero or
// negative: not measured) into both directions' delay state: links are
// symmetric, and a probe may never traverse the reverse direction.
func (c *Collector) sampleLinkLocked(a, b string, sample, now time.Duration) {
	if sample > 0 {
		c.updateDelayLocked(edgeKey{a, b}, sample, now)
		c.updateDelayLocked(edgeKey{b, a}, sample, now)
	}
}

// updateDelayLocked folds one latency sample into the edge's EWMA and
// Welford jitter accumulators.
func (c *Collector) updateDelayLocked(k edgeKey, sample, now time.Duration) {
	st := c.linkDelay[k]
	if st == nil {
		st = &linkState{ewma: sample}
		c.linkDelay[k] = st
	} else {
		alpha := c.cfg.DelayAlpha
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
// not report are pruned when a snapshot is built (buildLocked).
func (c *Collector) pushQueuesLocked(device string, queues []telemetry.PortQueue, now time.Duration) {
	if len(queues) == 0 {
		return
	}
	ports := c.queues[device]
	if ports == nil {
		ports = make(map[int]*portWindow)
		c.queues[device] = ports
	}
	for _, q := range queues {
		w := ports[q.Port]
		if w == nil {
			w = &portWindow{}
			ports[q.Port] = w
		}
		w.push(queueReport{at: now, maxQueue: q.MaxQueue})
		w.prune(now, c.window)
	}
}

// windowedQueueMax scans one port's reports and returns the maximum queue
// occupancy among in-window reports, whether any report is in the window,
// and the earliest time an in-window report ages out (neverExpires if none)
// — the moment a snapshot built from these reports must be rebuilt. It
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
