package collector

import (
	"sort"
	"time"

	"intsched/internal/telemetry"
)

// Probe ingest. A probe's hop sequence (origin, devices..., target) decides
// which shards it touches: the owners of every node on the path (plus, on a
// route remap, the owners of the old path's nodes, whose edges get
// accelerated aging). HandleProbe serializes per origin shard via streamMu,
// then locks the touched shards' state mutexes in ascending shard order and
// applies exactly the same learning rules as the historical single-mutex
// collector, so a sharded collector's merged state is byte-identical to a
// single-shard one fed the same probes.

// HandleProbe ingests one probe payload synchronously.
func (c *Collector) HandleProbe(p *telemetry.ProbePayload) {
	now := c.clock()
	c.probesReceived.Add(1)
	c.telemetryBytes.Add(uint64(telemetry.EncodedSize(p)))

	os := c.shardFor(p.Origin)
	os.streamMu.Lock()
	defer os.streamMu.Unlock()

	key := probeKey{origin: p.Origin, target: p.Target}
	prevMeta, seen := os.streams[key]
	if seen && p.Seq <= prevMeta.seq {
		// Reordered or duplicate probe: its registers were flushed before
		// the one we already processed; ignore to keep freshness monotone.
		// This gate also sequence-gates reassembly — a retransmitted or
		// stale probe's fragments never reach the merge below.
		c.probesOutOfOrder.Add(1)
		return
	}

	target := p.Target
	if target == "" {
		target = c.self
	}

	if p.Mode == telemetry.ModeProbabilistic {
		// Probabilistic probes carry sampled fragments; merge them through
		// the reassembly stage instead of treating the stack as a full
		// path. Stream metadata still advances so the sequence gate spans
		// mode changes (path stays nil: fragments, not a hop sequence).
		reset := c.reassembleProbe(os, key, p, target, now)
		meta := probeMeta{seq: p.Seq, at: now, remaps: prevMeta.remaps, resets: prevMeta.resets}
		if reset {
			meta.remaps++
			meta.resets++
		}
		os.streams[key] = meta
		return
	}
	if os.reasm != nil {
		// A deterministic probe supersedes any reassembly buffer this
		// stream accumulated while probabilistic (mode flip in a mixed
		// fleet rollout).
		delete(os.reasm, key)
	}
	// Assemble the hop sequence into the origin shard's scratch buffer.
	path := append(os.pathScratch[:0], p.Origin)
	recs := p.Stack.Records
	for i := range recs {
		path = append(path, recs[i].Device)
	}
	path = append(path, target)
	os.pathScratch = path

	remap := seen && !pathEqual(prevMeta.path, path)

	// Lock set: owners of every node on the new path, plus the old path's
	// owners when the route moved (their edges get backdated).
	set := os.lockScratch[:0]
	for _, n := range path {
		set = append(set, c.shardOf(n))
	}
	if remap {
		for _, n := range prevMeta.path {
			set = append(set, c.shardOf(n))
		}
	}
	sort.Ints(set)
	set = dedupInts(set)
	os.lockScratch = set

	for _, i := range set {
		c.shards[i].mu.Lock()
	}
	// Accepted probe: the learned state is about to change, invalidating
	// cached views of every touched shard and every rank result derived
	// from them.
	for _, i := range set {
		c.shards[i].epoch.Add(1)
	}
	c.applyProbeLocked(p, target, now)
	if remap {
		c.pathRemaps.Add(1)
		c.accelerateAgingLocked(prevMeta.path, path, now)
	}
	for i := len(set) - 1; i >= 0; i-- {
		c.shards[set[i]].mu.Unlock()
	}

	meta := probeMeta{seq: p.Seq, at: now, remaps: prevMeta.remaps, resets: prevMeta.resets}
	if remap {
		meta.remaps++
	}
	if seen && !remap {
		meta.path = prevMeta.path // unchanged: reuse, no allocation
	} else {
		meta.path = append([]string(nil), path...)
	}
	os.streams[key] = meta
}

// applyProbeLocked applies one accepted probe's records to the owning
// shards. Callers hold the mu of every shard owning a node on the probe's
// hop sequence.
func (c *Collector) applyProbeLocked(p *telemetry.ProbePayload, target string, now time.Duration) {
	alpha := c.cfg.DelayAlpha
	window := c.window()
	c.shardFor(p.Origin).isHost[p.Origin] = true

	recs := p.Stack.Records
	prev := p.Origin
	prevEgress := 0 // hosts have a single port
	for i := range recs {
		rec := &recs[i]
		c.recordsParsed.Add(1)
		dev := c.shardFor(rec.Device)
		dev.lastReport[rec.Device] = now

		// Topology: prev --(prev's egress port)--> rec.Device, and the
		// reverse direction leaves rec.Device via the probe's ingress
		// port (ports are full duplex).
		c.shardFor(prev).learnEdgeLocked(prev, prevEgress, rec.Device, now)
		dev.learnEdgeLocked(rec.Device, rec.IngressPort, prev, now)

		// Link latency of the hop the probe arrived on; symmetric links
		// seed the reverse direction too (a probe may never traverse it).
		if rec.LinkLatency > 0 || i > 0 {
			c.shardFor(prev).updateDelayLocked(edgeKey{prev, rec.Device}, rec.LinkLatency, now, alpha)
			dev.updateDelayLocked(edgeKey{rec.Device, prev}, rec.LinkLatency, now, alpha)
		}

		// Queue registers flushed by this device.
		dev.pushQueuesLocked(rec.Device, rec.Queues, now, window)

		prev = rec.Device
		prevEgress = rec.EgressPort
	}

	// Final hop: last device -> the probe's target host. Coverage-planned
	// probes may terminate at another edge host that relays the payload;
	// the collector itself measures the latency only when it is the
	// target (otherwise the relay measured it).
	c.shardFor(target).isHost[target] = true
	if len(recs) > 0 {
		last := &recs[len(recs)-1]
		c.shardFor(prev).learnEdgeLocked(prev, prevEgress, target, now)
		c.shardFor(target).learnEdgeLocked(target, 0, prev, now)
		lat := p.LastHopLatency
		if target == c.self {
			lat = now - last.EgressTS
		}
		if lat > 0 {
			c.shardFor(prev).updateDelayLocked(edgeKey{prev, target}, lat, now, alpha)
			c.shardFor(target).updateDelayLocked(edgeKey{target, prev}, lat, now, alpha)
		}
	} else {
		// Direct host-to-host probe (no switches): origin adjacent to the
		// target.
		c.shardFor(p.Origin).learnEdgeLocked(p.Origin, 0, target, now)
		c.shardFor(target).learnEdgeLocked(target, 0, p.Origin, now)
	}
}

func pathEqual(a, b []string) bool {
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

// dedupInts removes adjacent duplicates from a sorted slice, in place.
func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// --- Asynchronous ingest -------------------------------------------------

// StartIngestWorkers switches probe ingest to one bounded queue plus one
// worker goroutine per shard (keyed by probe origin, so each stream stays
// in order). EnqueueProbe then clones payloads into the owning shard's
// queue and drops them — counted by IngestDrops — when the queue is full,
// bounding ingest backpressure on the datagram receive loop. Intended for
// the live daemon; the deterministic simulation keeps the synchronous
// HandleProbe path.
func (c *Collector) StartIngestWorkers(queueLen int) {
	if queueLen <= 0 {
		queueLen = DefaultIngestQueue
	}
	if c.ingest.Load() != nil {
		return
	}
	chs := make([]chan *telemetry.ProbePayload, len(c.shards))
	for i := range chs {
		ch := make(chan *telemetry.ProbePayload, queueLen)
		chs[i] = ch
		c.ingestWG.Add(1)
		go func() {
			defer c.ingestWG.Done()
			for p := range ch {
				c.HandleProbe(p)
			}
		}()
	}
	c.ingest.Store(&chs)
}

// StopIngestWorkers drains and stops the per-shard ingest workers started
// by StartIngestWorkers. Safe to call when workers were never started.
func (c *Collector) StopIngestWorkers() {
	chs := c.ingest.Swap(nil)
	if chs == nil {
		return
	}
	for _, ch := range *chs {
		close(ch)
	}
	c.ingestWG.Wait()
}

// EnqueueProbe hands one probe payload to the asynchronous ingest workers,
// cloning it first (callers may reuse the payload's backing storage, as the
// live daemon's decode loop does). Falls back to synchronous HandleProbe
// when workers are not running. Returns false when the owning shard's queue
// was full and the probe was dropped.
func (c *Collector) EnqueueProbe(p *telemetry.ProbePayload) bool {
	chs := c.ingest.Load()
	if chs == nil {
		c.HandleProbe(p)
		return true
	}
	select {
	case (*chs)[c.shardOf(p.Origin)] <- cloneProbe(p):
		return true
	default:
		c.ingestDrops.Add(1)
		return false
	}
}

// cloneProbe deep-copies a probe payload (records and queue reports).
func cloneProbe(p *telemetry.ProbePayload) *telemetry.ProbePayload {
	cp := *p
	cp.Stack.Records = append([]telemetry.Record(nil), p.Stack.Records...)
	for i := range cp.Stack.Records {
		rec := &cp.Stack.Records[i]
		rec.Queues = append([]telemetry.PortQueue(nil), rec.Queues...)
	}
	return &cp
}
