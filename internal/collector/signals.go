package collector

import (
	"sort"
	"time"
)

// Controller-facing stream signals. The adaptive probing loop (internal/
// adapt) decides per-stream cadences from collector-side churn evidence:
// how stale each stream is, how often its route moved, whether aging has
// tombstoned any of its edges, and how noisy the queues along its path are.
// StreamSignals assembles that digest without mutating any state — it is a
// pure read, so polling it cannot perturb epochs, snapshots, or digests.

// StreamSignal is the per-stream churn digest consumed by the adaptive
// controller. Probabilistic streams keep no assembled hop sequence between
// reassembly cycles, so their Devices is empty and QueueVar/EvictedOnPath
// are zero; Age, Remaps, and Resets still carry their churn evidence.
type StreamSignal struct {
	Origin, Target string
	// Seq is the highest accepted sequence number; Age is the time since
	// the last accepted probe.
	Seq uint64
	Age time.Duration
	// Remaps counts accepted probes whose hop sequence differed from their
	// predecessor's; Resets counts reassembly buffers discarded because a
	// probe contradicted them. Both are cumulative — controllers react to
	// deltas between evaluations.
	Remaps, Resets uint64
	// Devices are the interior devices (switches) of the stream's last
	// known path, in hop order (a copy — safe to retain).
	Devices []string
	// QueueVar is the maximum sample variance of in-window max-queue
	// reports across Devices, in packets².
	QueueVar float64
	// EvictedOnPath counts path links currently tombstoned by adjacency
	// aging (either direction of a hop pair).
	EvictedOnPath int
}

// sigRow pairs a signal under construction with its stream's full hop
// sequence (including endpoints) for the edge-tombstone pass.
type sigRow struct {
	sig  StreamSignal
	path []string
}

// StreamSignals returns the churn digest of every known probe stream,
// sorted by (origin, target). Locking follows the iterator discipline: the
// stream pass holds one streamMu at a time, the link-state pass afterwards
// holds one mu at a time — never both, never two of either.
func (c *Collector) StreamSignals() []StreamSignal {
	now := c.clock()
	window := c.window()

	// Pass 1: stream metadata, one streamMu at a time.
	var rows []sigRow
	for _, sh := range c.shards {
		sh.streamMu.Lock()
		for key, meta := range sh.streams {
			row := sigRow{sig: StreamSignal{
				Origin: key.origin,
				Target: key.target,
				Seq:    meta.seq,
				Age:    now - meta.at,
				Remaps: meta.remaps,
				Resets: meta.resets,
			}}
			if len(meta.path) > 0 {
				row.path = append([]string(nil), meta.path...)
				if len(meta.path) > 2 {
					row.sig.Devices = row.path[1 : len(row.path)-1]
				}
			}
			rows = append(rows, row)
		}
		sh.streamMu.Unlock()
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].sig.Origin != rows[j].sig.Origin {
			return rows[i].sig.Origin < rows[j].sig.Origin
		}
		return rows[i].sig.Target < rows[j].sig.Target
	})

	// Collect the unique devices and directed path edges the rows
	// reference, grouped by owning shard.
	devVar := make(map[string]float64)
	edgeGone := make(map[edgeKey]bool)
	for i := range rows {
		for _, d := range rows[i].sig.Devices {
			devVar[d] = 0
		}
		p := rows[i].path
		for h := 0; h+1 < len(p); h++ {
			edgeGone[edgeKey{p[h], p[h+1]}] = false
			edgeGone[edgeKey{p[h+1], p[h]}] = false
		}
	}
	devByShard := make([][]string, len(c.shards))
	for d := range devVar {
		i := c.shardOf(d)
		devByShard[i] = append(devByShard[i], d)
	}
	edgeByShard := make([][]edgeKey, len(c.shards))
	for e := range edgeGone {
		i := c.shardOf(e.from)
		edgeByShard[i] = append(edgeByShard[i], e)
	}

	// Pass 2: link state, one mu at a time in shard order. Each device's
	// variance folds its ports in sorted order, so the float accumulation
	// order — and therefore the value — is identical run to run.
	for i, sh := range c.shards {
		devs, edges := devByShard[i], edgeByShard[i]
		if len(devs) == 0 && len(edges) == 0 {
			continue
		}
		sort.Strings(devs)
		sh.mu.Lock()
		for _, d := range devs {
			devVar[d] = queueVarianceLocked(sh, d, now, window)
		}
		for _, e := range edges {
			_, gone := sh.evicted[e]
			edgeGone[e] = gone
		}
		sh.mu.Unlock()
	}

	// Aggregate per stream.
	out := make([]StreamSignal, len(rows))
	for i := range rows {
		sig := rows[i].sig
		for _, d := range sig.Devices {
			if v := devVar[d]; v > sig.QueueVar {
				sig.QueueVar = v
			}
		}
		p := rows[i].path
		for h := 0; h+1 < len(p); h++ {
			if edgeGone[edgeKey{p[h], p[h+1]}] || edgeGone[edgeKey{p[h+1], p[h]}] {
				sig.EvictedOnPath++
			}
		}
		out[i] = sig
	}
	return out
}

// queueVarianceLocked computes the sample variance of one device's
// in-window max-queue reports across all its ports, folding ports in
// sorted order (Welford over a deterministic sequence). Callers hold the
// owning shard's mu.
func queueVarianceLocked(sh *shard, device string, now, window time.Duration) float64 {
	ports := sh.queues[device]
	if len(ports) == 0 {
		return 0
	}
	keys := make([]int, 0, len(ports))
	for p := range ports {
		keys = append(keys, p)
	}
	sort.Ints(keys)
	cutoff := now - window
	n := 0
	var mean, m2 float64
	for _, p := range keys {
		for _, r := range ports[p].inWindow(cutoff) {
			n++
			x := float64(r.maxQueue)
			delta := x - mean
			mean += delta / float64(n)
			m2 += delta * (x - mean)
		}
	}
	if n < 2 {
		return 0
	}
	return m2 / float64(n-1)
}
