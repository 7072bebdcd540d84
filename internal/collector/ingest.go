package collector

import (
	"slices"
	"time"

	"intsched/internal/telemetry"
)

// Probe ingest. HandleProbe takes the collector's lock, gates the probe on
// its stream's sequence number, and applies its hop sequence (origin,
// devices..., target) to the link state; a stream whose hop sequence changed
// puts the edges it abandoned on accelerated aging (aging.go).

// HandleProbe ingests one probe payload synchronously.
func (c *Collector) HandleProbe(p *telemetry.ProbePayload) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock()
	c.stats.ProbesReceived++
	c.stats.TelemetryBytes += uint64(telemetry.EncodedSize(p))

	key := probeKey{origin: p.Origin, target: p.Target}
	prevMeta, seen := c.streams[key]
	if seen && p.Seq <= prevMeta.seq {
		// Reordered or duplicate probe: its registers were flushed before
		// the one we already processed; ignore to keep freshness monotone.
		c.stats.ProbesOutOfOrder++
		return
	}
	// Accepted probe: the learned state is about to change, invalidating
	// the published snapshot and every rank result derived from it.
	c.epoch.Add(1)

	target := p.Target
	if target == "" {
		target = c.self
	}
	meta := probeMeta{seq: p.Seq, at: now, remaps: prevMeta.remaps}

	path := append(c.pathScratch[:0], p.Origin)
	recs := p.Stack.Records
	for i := range recs {
		path = append(path, recs[i].Device)
	}
	path = append(path, target)
	c.pathScratch = path

	c.applyProbeLocked(p, target, now)
	switch {
	case prevMeta.path == nil:
		// The stream's first probe: no previous route to have moved from.
		meta.path = slices.Clone(path)
	case slices.Equal(prevMeta.path, path):
		meta.path = prevMeta.path // unchanged: reuse, no allocation
	default:
		meta.remaps++
		c.stats.PathRemaps++
		c.accelerateAgingLocked(prevMeta.path, path, now)
		meta.path = slices.Clone(path)
	}
	c.streams[key] = meta
}

// applyProbeLocked applies one accepted probe's records to the link state.
func (c *Collector) applyProbeLocked(p *telemetry.ProbePayload, target string, now time.Duration) {
	c.learnHostLocked(p.Origin)

	recs := p.Stack.Records
	prev := p.Origin
	prevEgress := 0 // hosts have a single port
	for i := range recs {
		rec := &recs[i]
		c.stats.RecordsParsed++
		c.lastReport[rec.Device] = now

		// Topology: prev --(prev's egress port)--> rec.Device, and the
		// reverse direction leaves rec.Device via the probe's ingress
		// port (ports are full duplex).
		c.learnEdgeLocked(prev, prevEgress, rec.Device, now)
		c.learnEdgeLocked(rec.Device, rec.IngressPort, prev, now)

		// Link latency of the hop the probe arrived on.
		c.sampleLinkLocked(prev, rec.Device, rec.LinkLatency, now)

		// Queue registers flushed by this device.
		c.pushQueuesLocked(rec.Device, rec.Queues, now)

		prev = rec.Device
		prevEgress = rec.EgressPort
	}

	// Final hop: last device -> the probe's target host. Coverage-planned
	// probes may terminate at another edge host that relays the payload;
	// the collector itself measures the latency only when it is the
	// target (otherwise the relay measured it).
	c.learnHostLocked(target)
	if len(recs) > 0 {
		last := &recs[len(recs)-1]
		c.learnEdgeLocked(prev, prevEgress, target, now)
		c.learnEdgeLocked(target, 0, prev, now)
		lat := p.LastHopLatency
		if target == c.self {
			lat = now - last.EgressTS
		}
		c.sampleLinkLocked(prev, target, lat, now)
	} else {
		// Direct host-to-host probe (no switches): origin adjacent to the
		// target.
		c.learnEdgeLocked(p.Origin, 0, target, now)
		c.learnEdgeLocked(target, 0, p.Origin, now)
	}
}

// --- Asynchronous ingest -------------------------------------------------

// StartIngestWorkers switches probe ingest to one bounded queue drained by
// one worker goroutine, so streams stay in order. EnqueueProbe then clones
// payloads into the queue and drops them — counted by IngestDrops — when it
// is full, bounding ingest backpressure on the datagram receive loop.
// Intended for the live daemon; the deterministic simulation keeps the
// synchronous HandleProbe path.
func (c *Collector) StartIngestWorkers(queueLen int) {
	if queueLen <= 0 {
		queueLen = DefaultIngestQueue
	}
	if c.ingest.Load() != nil {
		return
	}
	ch := make(chan *telemetry.ProbePayload, queueLen)
	c.ingestWG.Add(1)
	go func() {
		defer c.ingestWG.Done()
		for p := range ch {
			c.HandleProbe(p)
		}
	}()
	c.ingest.Store(&ch)
}

// StopIngestWorkers drains and stops the ingest worker started by
// StartIngestWorkers. Safe to call when it was never started.
func (c *Collector) StopIngestWorkers() {
	ch := c.ingest.Swap(nil)
	if ch == nil {
		return
	}
	close(*ch)
	c.ingestWG.Wait()
}

// EnqueueProbe hands one probe payload to the asynchronous ingest worker,
// cloning it first (callers may reuse the payload's backing storage, as the
// live daemon's decode loop does). Falls back to synchronous HandleProbe
// when the worker is not running. Returns false when the queue was full and
// the probe was dropped.
func (c *Collector) EnqueueProbe(p *telemetry.ProbePayload) bool {
	ch := c.ingest.Load()
	if ch == nil {
		c.HandleProbe(p)
		return true
	}
	select {
	case *ch <- cloneProbe(p):
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
