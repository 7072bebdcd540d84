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
// controller.
type StreamSignal struct {
	Origin, Target string
	// Seq is the highest accepted sequence number; Age is the time since
	// the last accepted probe.
	Seq uint64
	Age time.Duration
	// Remaps counts accepted probes whose hop sequence differed from their
	// predecessor's. It is cumulative — controllers react to deltas between
	// evaluations.
	Remaps uint64
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

// StreamSignals returns the churn digest of every known probe stream,
// sorted by (origin, target).
func (c *Collector) StreamSignals() []StreamSignal {
	now := c.clock()
	c.mu.Lock()
	out := make([]StreamSignal, 0, len(c.streams))
	// devVar memoizes per-device variances: streams share devices.
	devVar := make(map[nodeID]float64)
	for key, meta := range c.streams {
		sig := StreamSignal{
			Origin: key.origin,
			Target: key.target,
			Seq:    meta.seq,
			Age:    now - meta.at,
			Remaps: meta.remaps,
		}
		// A path holds its origin and target at least.
		for _, d := range meta.path[1 : len(meta.path)-1] {
			sig.Devices = append(sig.Devices, c.nodes.at(d).name)
			v, ok := devVar[d]
			if !ok {
				v = c.queueVarianceLocked(c.nodes.at(d), now)
				devVar[d] = v
			}
			if v > sig.QueueVar {
				sig.QueueVar = v
			}
		}
		for h := 0; h+1 < len(meta.path); h++ {
			fwd := c.edges[edgeIDs{meta.path[h], meta.path[h+1]}]
			rev := c.edges[edgeIDs{meta.path[h+1], meta.path[h]}]
			if fwd != nil && fwd.tombstoned || rev != nil && rev.tombstoned {
				sig.EvictedOnPath++
			}
		}
		out = append(out, sig)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Origin != out[j].Origin {
			return out[i].Origin < out[j].Origin
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// queueVarianceLocked computes the sample variance of one device's
// in-window max-queue reports across all its ports, folding ports in
// ascending order, so the float accumulation order — and therefore the value
// — is identical run to run (Welford over a deterministic sequence).
func (c *Collector) queueVarianceLocked(device *nodeState, now time.Duration) float64 {
	cutoff := now - c.window
	n := 0
	var mean, m2 float64
	for _, w := range device.ports {
		if w == nil {
			continue
		}
		for _, r := range w.inWindow(cutoff) {
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
