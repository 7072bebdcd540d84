package collector

import (
	"time"

	"intsched/internal/telemetry"
)

// Probabilistic-probe reassembly (PINT-style). A probabilistic probe carries
// a sampled subset of its path's INT records, each tagged with its hop
// index, plus the true hop count. The collector buffers fragments per probe
// stream and merges successive probes into one assembled path, from which it
// applies exactly the learning rules the deterministic path uses — so at
// p=1.0 (every hop sampled on every probe) the resulting link state is
// byte-identical to deterministic mode.
//
// A stream's reassembly buffer is stream state like its sequence number and
// is guarded by the same lock. Sequence gating is the stream-level gate in
// HandleProbe: a probe whose sequence number is not strictly newer than the
// last accepted one is dropped before reassembly, so a stale or
// retransmitted fragment can never overwrite newer buffered state.

// reasmFrag is one buffered hop fragment.
type reasmFrag struct {
	// valid marks the slot as holding a fragment of the current path shape.
	valid bool
	// cycleMark tracks whether this slot contributed to the current
	// reassembly cycle (reset each time the whole path completes).
	cycleMark bool
	// seq is the sequence number of the probe that delivered the fragment;
	// frag.seq == probe.Seq identifies fragments fresh from this probe.
	seq uint64
	// rec is a deep copy of the fragment's record (callers may reuse the
	// probe payload's backing storage).
	rec telemetry.Record
}

// reasmState is one stream's reassembly buffer: one slot per hop of the
// declared path length.
type reasmState struct {
	frags []reasmFrag
	// cycleSeen counts distinct slots filled during the current cycle;
	// cycleAt is when the cycle's first fragment arrived. A cycle completes
	// when every hop has reported at least once, which is the reassembly
	// latency the live daemon's histogram observes.
	cycleSeen int
	cycleAt   time.Duration
}

// merge deep-copies rec into its hop slot, reusing the slot's queue scratch.
func (st *reasmState) merge(rec *telemetry.Record, seq uint64) {
	f := &st.frags[rec.HopIndex]
	scratch := f.rec.Queues[:0]
	f.rec = *rec
	f.rec.Queues = append(scratch, rec.Queues...)
	f.valid = true
	f.seq = seq
}

// impliedEdges appends the directed edges the buffer currently vouches for:
// both directions of every adjacent valid pair, plus the origin and target
// endpoint links when the boundary fragments are valid.
func (st *reasmState) impliedEdges(dst []edgeKey, origin, target string) []edgeKey {
	n := len(st.frags)
	if n == 0 {
		return dst
	}
	if st.frags[0].valid {
		dst = append(dst, edgeKey{origin, st.frags[0].rec.Device}, edgeKey{st.frags[0].rec.Device, origin})
	}
	for i := 1; i < n; i++ {
		if st.frags[i-1].valid && st.frags[i].valid {
			a, b := st.frags[i-1].rec.Device, st.frags[i].rec.Device
			dst = append(dst, edgeKey{a, b}, edgeKey{b, a})
		}
	}
	if st.frags[n-1].valid {
		last := st.frags[n-1].rec.Device
		dst = append(dst, edgeKey{last, target}, edgeKey{target, last})
	}
	return dst
}

// reassembleLocked ingests one accepted probabilistic probe and reports
// whether it reset a contradicted reassembly buffer (the stream's route
// moved), so the caller can bump the stream's per-stream churn counters.
func (c *Collector) reassembleLocked(key probeKey, p *telemetry.ProbePayload, target string, now time.Duration) bool {
	hops := p.HopCount
	if c.reasm == nil {
		c.reasm = make(map[probeKey]*reasmState)
	}
	st := c.reasm[key]
	if st == nil {
		st = &reasmState{}
		c.reasm[key] = st
	}

	// A buffered fragment that contradicts this probe — different path
	// length, or a different device at a sampled hop index — means the
	// route under the stream moved: the buffer describes a path that no
	// longer exists. Reset it and put the abandoned edges on accelerated
	// aging, exactly as a deterministic path remap would. (A reroute whose
	// changed hops were not sampled this probe is caught by a later probe
	// that samples them — reassembly is eventually consistent by design.)
	reset := len(st.frags) != 0 && len(st.frags) != hops
	if !reset {
		for i := range p.Stack.Records {
			rec := &p.Stack.Records[i]
			if rec.HopIndex >= 0 && rec.HopIndex < len(st.frags) &&
				st.frags[rec.HopIndex].valid && st.frags[rec.HopIndex].rec.Device != rec.Device {
				reset = true
				break
			}
		}
	}
	var oldEdges []edgeKey
	if reset {
		c.stats.ReassemblyResets++
		c.stats.PathRemaps++
		oldEdges = st.impliedEdges(nil, key.origin, target)
	}
	if reset || len(st.frags) != hops {
		if cap(st.frags) < hops {
			grown := make([]reasmFrag, hops)
			copy(grown, st.frags[:len(st.frags)])
			st.frags = grown
		} else {
			st.frags = st.frags[:hops]
		}
		for i := range st.frags {
			st.frags[i].valid = false
			st.frags[i].cycleMark = false
		}
		st.cycleSeen = 0
	}

	// Merge this probe's fragments. The stream-level sequence gate already
	// guaranteed they are strictly newer than anything buffered.
	freshAny := false
	for i := range p.Stack.Records {
		rec := &p.Stack.Records[i]
		if rec.HopIndex < 0 || rec.HopIndex >= hops {
			continue // malformed index; never trust wire input
		}
		st.merge(rec, p.Seq)
		freshAny = true
	}

	c.applyFragsLocked(st, p, key.origin, target, now)
	if len(oldEdges) > 0 {
		c.backdateAbandonedLocked(oldEdges, st, key.origin, target, now)
	}

	// Cycle accounting: once every hop has reported at least once the path
	// is fully reassembled. The hook observes how long that took — the
	// telemetry staleness cost of sampling.
	if freshAny && st.cycleSeen == 0 {
		st.cycleAt = now
	}
	for i := range st.frags {
		f := &st.frags[i]
		if f.valid && f.seq == p.Seq && !f.cycleMark {
			f.cycleMark = true
			st.cycleSeen++
		}
	}
	if hops > 0 && st.cycleSeen == hops {
		c.stats.ReassemblyCompletions++
		if c.onReassembly != nil {
			c.onReassembly(key.origin, target, hops, now-st.cycleAt)
		}
		for i := range st.frags {
			st.frags[i].cycleMark = false
		}
		st.cycleSeen = 0
	}
	return reset
}

// applyFragsLocked applies the merged buffer to the link state. Fragments
// fresh from this probe get the full deterministic treatment — record
// counters, last-report time, queue reports, and link-delay samples — while
// stale-but-valid fragments get adjacency keep-alive only: the probe's
// arrival proves the buffered path is still being traversed end to end, so
// its edges must not age out merely because sampling skipped them lately,
// but their measurements belong to older probes and are already folded in.
// At p=1.0 every fragment is fresh on every probe and the keep-alive
// refreshes are idempotent duplicates of the fresh-path learning, which is
// what keeps p=1.0 output byte-identical to deterministic mode.
func (c *Collector) applyFragsLocked(st *reasmState, p *telemetry.ProbePayload, origin, target string, now time.Duration) {
	c.learnHostLocked(origin)
	c.learnHostLocked(target)

	hops := len(st.frags)
	for i := 0; i < hops; i++ {
		f := &st.frags[i]
		if !f.valid {
			continue
		}
		fresh := f.seq == p.Seq

		// The upstream neighbor: the origin host for the first hop, the
		// previous buffered fragment otherwise. A gap (previous hop never
		// sampled yet) leaves the edge unknown — a later probe that
		// samples the gap fills it in.
		prev, prevEgress, prevKnown := origin, 0, true
		if i > 0 {
			if pf := &st.frags[i-1]; pf.valid {
				prev, prevEgress = pf.rec.Device, pf.rec.EgressPort
			} else {
				prevKnown = false
			}
		}

		if fresh {
			c.stats.RecordsParsed++
			c.stats.RecordsReassembled++
			c.lastReport[f.rec.Device] = now
		}
		if prevKnown {
			c.learnEdgeLocked(prev, prevEgress, f.rec.Device, now)
			c.learnEdgeLocked(f.rec.Device, f.rec.IngressPort, prev, now)
			// Every hop is egress-stamped whether or not it was sampled,
			// so a fresh fragment's link latency is a current measurement
			// even when the upstream record is from an older probe.
			if fresh {
				c.sampleLinkLocked(prev, f.rec.Device, f.rec.LinkLatency, now)
			}
		}
		if fresh {
			c.pushQueuesLocked(f.rec.Device, f.rec.Queues, now)
		}
	}

	// Final hop: last buffered device -> target.
	if hops == 0 {
		// The probe declared a switchless path: origin adjacent to target,
		// as in the deterministic empty-stack case.
		c.learnEdgeLocked(origin, 0, target, now)
		c.learnEdgeLocked(target, 0, origin, now)
		return
	}
	if lf := &st.frags[hops-1]; lf.valid {
		c.learnEdgeLocked(lf.rec.Device, lf.rec.EgressPort, target, now)
		c.learnEdgeLocked(target, 0, lf.rec.Device, now)
		if lf.seq == p.Seq {
			lat := p.LastHopLatency
			if target == c.self {
				lat = now - lf.rec.EgressTS
			}
			c.sampleLinkLocked(lf.rec.Device, target, lat, now)
		}
	}
}

// backdateAbandonedLocked puts the pre-reset buffer's edges on accelerated
// aging, except those the rebuilt buffer still vouches for — the
// reassembly-side analog of the deterministic path-remap rule.
func (c *Collector) backdateAbandonedLocked(oldEdges []edgeKey, st *reasmState, origin, target string, now time.Duration) {
	ttl := c.adjTTLLocked()
	if ttl <= 0 {
		return
	}
	keptEdges := st.impliedEdges(nil, origin, target)
	kept := make(map[edgeKey]bool, len(keptEdges))
	for _, e := range keptEdges {
		kept[e] = true
	}
	deadline := now - ttl + 2*c.window
	for _, e := range oldEdges {
		if !kept[e] {
			c.backdateEdgeLocked(e, deadline)
		}
	}
}
