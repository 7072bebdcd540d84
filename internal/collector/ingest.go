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

	// Every name is interned once, here; the rest of ingest runs on ids.
	path := append(c.pathScratch[:0], c.internLocked(p.Origin))
	recs := p.Stack.Records
	for i := range recs {
		path = append(path, c.internLocked(recs[i].Device))
	}
	path = append(path, c.internLocked(target))
	c.pathScratch = path

	c.applyProbeLocked(p, path, target == c.self, now)
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
// path is the probe's hop sequence as ids: the origin, the device of each
// record, and the target, which is the collector itself when toSelf.
func (c *Collector) applyProbeLocked(p *telemetry.ProbePayload, path []nodeID, toSelf bool, now time.Duration) {
	origin, target := path[0], path[len(path)-1]
	c.learnHostLocked(origin)

	recs := p.Stack.Records
	prev := origin
	prevEgress := 0 // hosts have a single port
	for i := range recs {
		rec := &recs[i]
		dev := path[i+1]
		device := c.nodes.at(dev)
		c.stats.RecordsParsed++
		device.reported, device.lastReport = true, now

		// Topology: prev --(prev's egress port)--> the device, and the
		// reverse direction leaves the device via the probe's ingress port
		// (ports are full duplex). Link latency of the hop the probe
		// arrived on.
		fwd := c.learnEdgeLocked(prev, prevEgress, dev, now)
		rev := c.learnEdgeLocked(dev, rec.IngressPort, prev, now)
		c.sampleLinkLocked(fwd, rev, rec.LinkLatency)

		// Queue registers flushed by this device.
		c.pushQueuesLocked(device, rec.Queues, now)

		prev = dev
		prevEgress = rec.EgressPort
	}

	// Final hop: last device -> the probe's target host. Coverage-planned
	// probes may terminate at another edge host that relays the payload;
	// the collector itself measures the latency only when it is the
	// target (otherwise the relay measured it).
	c.learnHostLocked(target)
	if len(recs) > 0 {
		fwd := c.learnEdgeLocked(prev, prevEgress, target, now)
		rev := c.learnEdgeLocked(target, 0, prev, now)
		lat := p.LastHopLatency
		if toSelf {
			lat = now - recs[len(recs)-1].EgressTS
		}
		c.sampleLinkLocked(fwd, rev, lat)
	} else {
		// Direct host-to-host probe (no switches): origin adjacent to the
		// target.
		c.learnEdgeLocked(origin, 0, target, now)
		c.learnEdgeLocked(target, 0, origin, now)
	}
}
