package collector

import (
	"math"
	"time"

	"intsched/internal/telemetry"
)

// Mutations of the link state. Every function here expects the caller to
// hold Collector.mu.
//
// These are the only places a measurement changes, and each writes what it
// changed into the live slot array (c.live, laid out by c.cur) as well as the
// maps: the forward slot of the edge and its mirror in the opposite edge's
// reverse slot, found through the slotPair stamped on the linkState or
// portWindow when the structure was built. A change to the adjacency or the
// host set clears c.cur instead — the layout itself is out of date — and
// writes are skipped until the next snapshot rebuilds it from the maps
// (rebuildLocked).

// learnEdgeLocked records the directed adjacency from --(port)--> to.
func (c *Collector) learnEdgeLocked(from string, port int, to string, now time.Duration) {
	m := c.adj[from]
	if m == nil {
		m = make(map[int]string)
		c.adj[from] = m
	}
	if old, ok := m[port]; !ok || old != to {
		m[port] = to
		c.cur = nil
	}
	c.adjSeen[edgeKey{from, to}] = now
	delete(c.evicted, edgeKey{from, to})
}

// learnHostLocked marks id as a host.
func (c *Collector) learnHostLocked(id string) {
	if !c.isHost[id] {
		c.isHost[id] = true
		c.cur = nil
	}
}

// edgeSlotsLocked resolves by name where direction k is held in c.live.
func (c *Collector) edgeSlotsLocked(k edgeKey) slotPair {
	if c.cur == nil {
		return noSlots
	}
	u, ok := c.cur.nodeIndex[k.from]
	v, ok2 := c.cur.nodeIndex[k.to]
	if !ok || !ok2 {
		return noSlots
	}
	return c.cur.edgeSlots(u, v)
}

// portSlotsLocked resolves where the queue maximum of (device, port) is
// held: the slots of the edge the port is the egress of, if any (a port with
// no learned neighbour, or the higher-numbered of parallel ports, is none).
func (c *Collector) portSlotsLocked(device string, port int) slotPair {
	s := c.cur
	if s == nil {
		return noSlots
	}
	u, ok := s.nodeIndex[device]
	if !ok {
		return noSlots
	}
	for e := s.edgeStart.at(u); e < s.edgeStart.at(u+1); e++ {
		if s.egress.at(e) == port {
			return s.edgeSlots(u, s.nbrFlat.at(e))
		}
	}
	return noSlots
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
		st = &linkState{ewma: sample, slotPair: c.edgeSlotsLocked(k)}
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
	if c.cur != nil {
		for _, s := range [2]Slot{st.fwd, st.rev} {
			if s >= 0 {
				m := c.live.ref(s)
				m.delay, m.delayOK = st.ewma, true
			}
		}
	}
}

// storeRateLocked writes direction k's configured capacity into its slots.
func (c *Collector) storeRateLocked(k edgeKey, rate int64) {
	at := c.edgeSlotsLocked(k)
	for _, s := range [2]Slot{at.fwd, at.rev} {
		if s >= 0 {
			c.live.ref(s).rate = rate
		}
	}
}

// storeQueueLocked writes a just-pruned port window's maximum into its slots.
// Callers skip it while heldMax equals w.stored: most reports are dominated
// by one already held.
func (c *Collector) storeQueueLocked(w *portWindow, best int32) {
	w.stored = best
	if w.fwd < 0 || c.cur == nil {
		return // rev mirrors fwd: a port without the one has neither
	}
	m := c.live.ref(w.fwd)
	m.queue, m.queueOK = max(best, 0), best >= 0
	if w.rev >= 0 {
		*c.live.ref(w.rev) = *m
	}
}

// pushQueuesLocked records the queue registers one device flushed at now, and
// the flush itself in the collector-wide event queue that tells ageLocked when
// to come back for them. Pushing onto a port prunes that port and no other.
func (c *Collector) pushQueuesLocked(device string, queues []telemetry.PortQueue, now time.Duration) {
	if len(queues) == 0 {
		return
	}
	d := c.queues[device]
	if d == nil {
		d = &deviceQueues{id: device, ports: make(map[int]*portWindow), agedTo: math.MinInt64}
		c.queues[device] = d
	}
	for _, q := range queues {
		w := d.ports[q.Port]
		if w == nil {
			w = &portWindow{slotPair: c.portSlotsLocked(device, q.Port), stored: -1}
			d.ports[q.Port] = w
		}
		w.push(queueReport{at: now, maxQueue: q.MaxQueue})
		w.prune(now, c.window)
		if best := w.heldMax(); best != w.stored {
			c.storeQueueLocked(w, best)
		}
	}
	if c.flushes.full() {
		// Before the event queue grows, release what a reader would have:
		// a collector nobody reads holds one window of events and reports,
		// not all of them.
		c.ageQueuesLocked(now)
	}
	c.flushes.push(flushEvent{at: now, device: d})
}

// deviceQueues holds one device's port windows.
type deviceQueues struct {
	id    string
	ports map[int]*portWindow
	// agedTo is the cutoff ageLocked last pruned every port to.
	agedTo time.Duration
}

// window returns the window of one port, nil if there is none.
func (d *deviceQueues) window(port int) *portWindow {
	if d == nil {
		return nil
	}
	return d.ports[port]
}

// flushEvent records that a device flushed queue registers at the given time:
// one per record, however many ports it reported. A device entry is dropped
// only once every report it holds has left the window, so no event outlives
// the entry it points to.
type flushEvent struct {
	at     time.Duration
	device *deviceQueues
}

// flushQueue is the collector's queue of flush events, in ingest — so time —
// order: a ring that grows to the most events ever queued at once and is then
// reused in place, one store a push.
type flushQueue struct {
	buf     []flushEvent // len is zero or a power of two
	head, n int
}

func (q *flushQueue) full() bool { return q.n == len(q.buf) }

func (q *flushQueue) front() flushEvent { return q.buf[q.head] }

func (q *flushQueue) push(e flushEvent) {
	if q.full() {
		grown := make([]flushEvent, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *flushQueue) pop() {
	q.buf[q.head] = flushEvent{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
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
	// slotPair is where this direction's delay is held in the live slots.
	slotPair
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
