package collector

import (
	"math"
	"time"

	"intsched/internal/telemetry"
)

// The link state and its mutations. Every function here expects the caller
// to hold Collector.mu.
//
// A probe's names are interned once, as it is accepted, into dense nodeIDs
// that index the node table; the edge table is keyed by pairs of them. Aging
// clears state, never ids, so an id names one node for the collector's life,
// and a name that was never interned reads as absent.
//
// These are the only places a measurement changes, and each writes what it
// changed into the live slot array (c.live, laid out by c.cur) as well as the
// tables: the forward slot of the edge and its mirror in the opposite edge's
// reverse slot, found through the slotPair stamped on the edgeState or
// portWindow when the structure was built. A change to the adjacency or the
// host set clears c.cur instead — the layout itself is out of date — and
// writes are skipped until the next snapshot rebuilds it from the tables
// (rebuildLocked).

// nodeID is an interned node name: an index into Collector.nodes.
type nodeID int32

// maxPorts bounds a device's port windows: the wire carries a port in a byte.
// A report on a port outside [0, maxPorts), from an in-process caller, is
// dropped.
const maxPorts = 256

// nodeState is what the collector knows of one node.
type nodeState struct {
	name string
	// host marks a known host, reported a device that has sent INT records
	// (the last at lastReport).
	host, reported bool
	lastReport     time.Duration
	// adj maps egress port -> neighbour.
	adj map[int]nodeID
	// ports holds the queue windows by port, nil where there is none. Aging
	// drops the windows, and then the slice, whose reports all expired.
	ports []*portWindow
	// agedTo is the cutoff ageQueuesLocked last pruned every port to.
	agedTo time.Duration
	// idx is the node's index in c.cur, or -1 (stale while c.cur is nil).
	idx NodeIdx
}

// edgeIDs is the key of a directed edge in Collector.edges.
type edgeIDs struct{ from, to nodeID }

// edgeState is what the collector knows of one directed edge. Its delay
// history and configured rate outlive eviction.
type edgeState struct {
	// slotPair is where the edge's delay and rate are held in the live slots.
	slotPair
	from, to nodeID
	// learned is set while the edge is in the adjacency, confirmed last at
	// seen; tombstoned from its eviction at evictedAt until it is relearned.
	learned, tombstoned bool
	seen, evictedAt     time.Duration
	rateSet             bool
	rate                int64     // the configured capacity, when rateSet
	delay               linkState // never measured while delay.samples is 0
}

// internLocked returns name's id, interning it on first sight.
func (c *Collector) internLocked(name string) nodeID {
	if id, ok := c.ids[name]; ok {
		return id
	}
	id := nodeID(len(c.nodes.s))
	c.ids[name] = id
	c.nodes.s = append(c.nodes.s, &nodeState{name: name, agedTo: math.MinInt64, idx: -1})
	return id
}

// edgeByNameLocked returns the state of the directed edge from->to, nil if
// there is none.
func (c *Collector) edgeByNameLocked(from, to string) *edgeState {
	u, ok := c.ids[from]
	v, ok2 := c.ids[to]
	if !ok || !ok2 {
		return nil
	}
	return c.edges[edgeIDs{u, v}]
}

// edgeLocked returns the state of the directed edge from->to, creating it.
func (c *Collector) edgeLocked(from, to nodeID) *edgeState {
	e := c.edges[edgeIDs{from, to}]
	if e == nil {
		e = &edgeState{slotPair: c.edgeSlotsLocked(from, to), from: from, to: to}
		c.edges[edgeIDs{from, to}] = e
	}
	return e
}

// learnEdgeLocked records the directed adjacency from --(port)--> to and
// returns the edge.
func (c *Collector) learnEdgeLocked(from nodeID, port int, to nodeID, now time.Duration) *edgeState {
	n := c.nodes.at(from)
	if n.adj == nil {
		n.adj = make(map[int]nodeID)
	}
	if old, ok := n.adj[port]; !ok || old != to {
		n.adj[port] = to
		c.cur = nil
	}
	e := c.edgeLocked(from, to)
	e.learned, e.seen, e.tombstoned = true, now, false
	return e
}

// learnHostLocked marks id as a host.
func (c *Collector) learnHostLocked(id nodeID) {
	if n := c.nodes.at(id); !n.host {
		n.host = true
		c.cur = nil
	}
}

// edgeSlotsLocked resolves where direction from->to is held in c.live.
func (c *Collector) edgeSlotsLocked(from, to nodeID) slotPair {
	if c.cur == nil {
		return noSlots
	}
	u, v := c.nodes.at(from).idx, c.nodes.at(to).idx
	if u < 0 || v < 0 {
		return noSlots
	}
	return c.cur.edgeSlots(u, v)
}

// portSlotsLocked resolves where the queue maximum of (device, port) is
// held: the slots of the edge the port is the egress of, if any (a port with
// no learned neighbour, or the higher-numbered of parallel ports, is none).
func (c *Collector) portSlotsLocked(device *nodeState, port int) slotPair {
	s, u := c.cur, device.idx
	if s == nil || u < 0 {
		return noSlots
	}
	for e := s.edgeStart.at(u); e < s.edgeStart.at(u+1); e++ {
		if s.egress.at(e) == port {
			return s.edgeSlots(u, s.nbrFlat.at(e))
		}
	}
	return noSlots
}

// sampleLinkLocked folds one latency sample of a link (zero or negative: not
// measured) into both directions' delay state: links are symmetric, and a
// probe may never traverse the reverse direction.
func (c *Collector) sampleLinkLocked(fwd, rev *edgeState, sample time.Duration) {
	if sample > 0 {
		c.updateDelayLocked(fwd, sample)
		c.updateDelayLocked(rev, sample)
	}
}

// updateDelayLocked folds one latency sample into the edge's EWMA and
// Welford jitter accumulators.
func (c *Collector) updateDelayLocked(e *edgeState, sample time.Duration) {
	st := &e.delay
	if st.samples == 0 {
		st.ewma = sample
	} else {
		alpha := c.cfg.DelayAlpha
		st.ewma = time.Duration(alpha*float64(sample) + (1-alpha)*float64(st.ewma))
	}
	st.samples++
	delta := float64(sample) - st.mean
	st.mean += delta / float64(st.samples)
	st.m2 += delta * (float64(sample) - st.mean)
	if c.cur != nil {
		for _, s := range [2]Slot{e.fwd, e.rev} {
			if s >= 0 {
				m := c.live.ref(s)
				m.delay, m.delayOK = st.ewma, true
			}
		}
	}
}

// storeRateLocked writes the edge's configured capacity into its slots.
func (c *Collector) storeRateLocked(e *edgeState) {
	for _, s := range [2]Slot{e.fwd, e.rev} {
		if s >= 0 && c.cur != nil {
			c.live.ref(s).rate = e.rate
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
func (c *Collector) pushQueuesLocked(device *nodeState, queues []telemetry.PortQueue, now time.Duration) {
	if len(queues) == 0 {
		return
	}
	for _, q := range queues {
		if q.Port < 0 || q.Port >= maxPorts {
			continue
		}
		if grow := q.Port + 1 - len(device.ports); grow > 0 {
			device.ports = append(device.ports, make([]*portWindow, grow)...)
		}
		w := device.ports[q.Port]
		if w == nil {
			w = &portWindow{slotPair: c.portSlotsLocked(device, q.Port), stored: -1}
			device.ports[q.Port] = w
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
	c.flushes.push(flushEvent{at: now, device: device})
}

// window returns the window of one port, nil if there is none.
func (n *nodeState) window(port int) *portWindow {
	if port < 0 || port >= len(n.ports) {
		return nil
	}
	return n.ports[port]
}

// flushEvent records that a device flushed queue registers at the given time:
// one per record, however many ports it reported.
type flushEvent struct {
	at     time.Duration
	device *nodeState
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
	ewma    time.Duration
	samples uint64
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
