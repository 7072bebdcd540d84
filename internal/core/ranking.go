// Package core implements the paper's contribution: the network-aware task
// scheduler for edge computing. It ranks candidate edge servers for a
// querying edge device using INT-derived telemetry — either by estimated
// end-to-end delay (Algorithm 1 of the paper) or by estimated bottleneck
// available bandwidth — and serves ranking queries over the network.
//
// The two baselines the paper compares against (Nearest and Random) are
// implemented here too, plus the extensions that kept their place in a
// paired multi-seed trial (DESIGN §8): size-aware transfer-time ranking and
// automatic calibration of the queue→latency conversion factor k.
package core

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
)

// Metric selects the ranking strategy.
type Metric uint8

const (
	// MetricDelay ranks by estimated one-way network delay (Algorithm 1).
	MetricDelay Metric = iota
	// MetricBandwidth ranks by estimated bottleneck available bandwidth.
	MetricBandwidth
	// MetricNearest is the static closest-node baseline.
	MetricNearest
	// MetricRandom is the random load-balancing baseline.
	MetricRandom
	// MetricTransferTime is the size-aware extension estimating total
	// transfer completion time (delay + data / bottleneck bandwidth).
	MetricTransferTime
)

var metricNames = [...]string{"delay", "bandwidth", "nearest", "random", "transfer-time"}

// NumMetrics is the number of metrics: every Metric ParseMetric returns
// indexes an array of this length.
const NumMetrics = len(metricNames)

func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return "unknown"
}

// ParseMetric converts a string (as used by CLI flags) to a Metric.
func ParseMetric(s string) (Metric, bool) {
	for i, n := range metricNames {
		if n == s {
			return Metric(i), true
		}
	}
	return 0, false
}

// Candidate is one ranked edge server with the scheduler's performance
// estimates, returned to edge devices (the paper's step 4: a list of edge
// servers along with expected bandwidth and latency).
type Candidate struct {
	// Node is the edge server.
	Node netsim.NodeID
	// Delay is the estimated one-way delay from the querying device.
	Delay time.Duration
	// BandwidthBps is the estimated bottleneck available bandwidth.
	BandwidthBps float64
	// Hops is the learned path length in links.
	Hops int
	// Reachable is false when the learned topology has no path; such
	// candidates sort last.
	Reachable bool
}

// Ranker orders candidate edge servers for a querying device using a
// topology snapshot. Rankings are computed entirely in the snapshot's int32
// index coordinate system — PathInto into reusable scratch, metric reads as
// arena slot loads (see collector/arena.go) — and touch strings only when
// forming Candidate.Node (a reference to the snapshot's interned host name).
type Ranker interface {
	// Metric identifies the strategy.
	Metric() Metric
	// Rank returns the candidates ordered best-first, reachable ones before
	// unreachable ones (RankEntry serves the recovery filter as a prefix).
	// from/fromIdx are the querying device's ID and merged node index (-1
	// when it has no adjacency); cands are positions in the snapshot's
	// sorted host list; dataBytes is the task's transfer size (0 when
	// unknown). The result aliases s — callers clone before retaining it.
	Rank(topo *collector.Topology, from netsim.NodeID, fromIdx int32, cands []int32, dataBytes int64, s *rankScratch) []Candidate
}

// rankScratch holds the reusable buffers of one in-flight ranking
// computation. All slices follow the store-back idiom: helpers return the
// (possibly re-homed) slice and the owner stores it back.
type rankScratch struct {
	cands []int32     // unit:host — candidate positions in the sorted host list
	path  []int32     // unit:node — PathInto walk scratch (merged node indices)
	out   []Candidate // ranking output buffer (cloned before caching)
}

var scratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// ComputeRanking computes one fresh best-first ranking against a snapshot
// with the default candidate set (every host except from). The returned
// slice is private to the caller.
func ComputeRanking(topo *collector.Topology, r Ranker, from netsim.NodeID, dataBytes int64) []Candidate {
	sc := scratchPool.Get().(*rankScratch)
	sc.cands = hostCandidatesIdx(topo, topo.HostIndex(string(from)), sc.cands)
	ranked := rankPrivate(topo, r, from, sc.cands, dataBytes, sc)
	scratchPool.Put(sc)
	return ranked
}

// rankPrivate runs r over cands in the scratch sc and returns a clone of
// the result, which the caller owns.
func rankPrivate(topo *collector.Topology, r Ranker, from netsim.NodeID, cands []int32, dataBytes int64, sc *rankScratch) []Candidate {
	fromIdx := int32(-1)
	if i, ok := topo.NodeIndex(string(from)); ok {
		fromIdx = i
	}
	return CloneCandidates(r.Rank(topo, from, fromIdx, cands, dataBytes, sc))
}

// hostCandidatesIdx appends every host index except fromHost into buf[:0]
// — the default candidate rule (every known host except the requester,
// the scheduler itself included, per the paper's experimental setup;
// fromHost = -1 excludes nobody).
func hostCandidatesIdx(topo *collector.Topology, fromHost int, buf []int32) []int32 {
	out := buf[:0]
	for j := 0; j < topo.HostCount(); j++ {
		if j != fromHost {
			out = append(out, int32(j))
		}
	}
	return out
}

// rankPaths walks the learned path from the requester to every candidate
// and returns the unsorted candidate list in s.out. Candidates without a
// path stay unreachable with zero estimates; est supplies the delay and
// bandwidth estimates of each reachable one from its walked path.
func rankPaths(topo *collector.Topology, fromIdx int32, cands []int32, s *rankScratch, est func(path []int32) (time.Duration, float64)) []Candidate {
	out := s.out[:0]
	for _, j := range cands {
		cand := Candidate{Node: netsim.NodeID(topo.HostName(int(j)))}
		p, code, _ := topo.PathInto(fromIdx, topo.HostNodeIndex(int(j)), s.path)
		s.path = p
		if code == collector.PathOK {
			cand.Reachable = true
			cand.Hops = len(p) - 1
			cand.Delay, cand.BandwidthBps = est(p)
		}
		out = append(out, cand)
	}
	s.out = out
	return out
}

func byDelay(a, b Candidate) bool { return a.Delay < b.Delay }

// DefaultK is the paper's queue-occupancy→latency conversion factor: each
// queued packet on a hop contributes k of estimated queueing delay. The
// paper found k = 20 ms sufficient to identify major congestion events.
const DefaultK = 20 * time.Millisecond

// FallbackLinkDelay is assumed for learned links that have no latency
// measurement yet (e.g. before the first probe crosses them).
const FallbackLinkDelay = 10 * time.Millisecond

// DelayRanker implements Algorithm 1: for every candidate edge server it
// sums measured link delays along the learned path and adds k × (windowed
// max queue occupancy) for every hop, then sorts ascending.
type DelayRanker struct {
	// K is the queue→latency conversion factor (DefaultK when zero).
	K time.Duration
}

// Metric implements Ranker.
func (r *DelayRanker) Metric() Metric { return MetricDelay }

// k returns the effective queue→latency conversion factor.
func (r *DelayRanker) k() time.Duration {
	if r.K <= 0 {
		return DefaultK
	}
	return r.K
}

// delayOverPath computes Algorithm 1's estimate over a walked index path:
// measured link delays (fallback for unmeasured) and k × windowed queue max
// per switch hop. Hosts have no measured queues; only switch hops
// contribute, matching Algorithm 1's per-hop Q(h) term.
func (r *DelayRanker) delayOverPath(topo *collector.Topology, p []int32, k time.Duration) time.Duration {
	var totalLinkDelay, totalHopDelay time.Duration
	for i := 0; i+1 < len(p); i++ {
		a, b := p[i], p[i+1]
		slot := topo.DirSlot(a, b)
		if d, ok := topo.SlotDelay(slot); ok {
			totalLinkDelay += d
		} else {
			totalLinkDelay += FallbackLinkDelay
		}
		// Queueing contribution of the egress port feeding this link.
		if !topo.IsHostIdx(a) {
			if q, ok := topo.SlotQueueMax(slot); ok {
				totalHopDelay += time.Duration(q) * k
			}
		}
	}
	return totalLinkDelay + totalHopDelay
}

// Rank implements Ranker.
func (r *DelayRanker) Rank(topo *collector.Topology, _ netsim.NodeID, fromIdx int32, cands []int32, _ int64, s *rankScratch) []Candidate {
	k := r.k()
	out := rankPaths(topo, fromIdx, cands, s, func(p []int32) (time.Duration, float64) {
		return r.delayOverPath(topo, p, k), 0
	})
	sortCandidates(out, byDelay)
	return out
}

// BandwidthRanker estimates per-link available bandwidth from the windowed
// max queue occupancy via a queue→utilization calibration, takes the
// bottleneck minimum along the learned path, and sorts descending.
type BandwidthRanker struct {
	// Calibration maps queue occupancy to utilization (DefaultCalibration
	// when nil).
	Calibration *Calibration
}

// Metric implements Ranker.
func (r *BandwidthRanker) Metric() Metric { return MetricBandwidth }

// calibration returns the effective queue→utilization curve.
func (r *BandwidthRanker) calibration() *Calibration {
	if r.Calibration == nil {
		return DefaultCalibration()
	}
	return r.Calibration
}

// bottleneckOverPath computes the bottleneck available bandwidth over a
// walked index path.
func (r *BandwidthRanker) bottleneckOverPath(topo *collector.Topology, p []int32, cal *Calibration) float64 {
	bottleneck := -1.0
	for i := 0; i+1 < len(p); i++ {
		a, b := p[i], p[i+1]
		slot := topo.DirSlot(a, b)
		rate := float64(topo.SlotRate(slot))
		util := 0.0
		if !topo.IsHostIdx(a) {
			if q, ok := topo.SlotQueueMax(slot); ok {
				util = cal.Utilization(q)
			}
		}
		avail := rate * (1 - util)
		if bottleneck < 0 || avail < bottleneck {
			bottleneck = avail
		}
	}
	if bottleneck < 0 {
		bottleneck = 0
	}
	return bottleneck
}

// Rank implements Ranker.
func (r *BandwidthRanker) Rank(topo *collector.Topology, _ netsim.NodeID, fromIdx int32, cands []int32, _ int64, s *rankScratch) []Candidate {
	cal := r.calibration()
	out := rankPaths(topo, fromIdx, cands, s, func(p []int32) (time.Duration, float64) {
		return 0, r.bottleneckOverPath(topo, p, cal)
	})
	sortCandidates(out, func(a, b Candidate) bool { return a.BandwidthBps > b.BandwidthBps })
	return out
}

// NearestRanker is the paper's Nearest baseline: it ranks candidates by a
// statically precomputed hop count, oblivious to congestion. The paper
// computes nearest nodes ahead of time, so this ranker takes ground-truth
// hop counts at construction and never consults telemetry.
type NearestRanker struct {
	hops map[netsim.NodeID]map[netsim.NodeID]int
}

// NewNearestRanker precomputes hop counts between all pairs of the given
// hosts using the network's installed routes.
func NewNearestRanker(nw *netsim.Network, hosts []netsim.NodeID) (*NearestRanker, error) {
	r := &NearestRanker{hops: make(map[netsim.NodeID]map[netsim.NodeID]int, len(hosts))}
	for _, a := range hosts {
		r.hops[a] = make(map[netsim.NodeID]int, len(hosts))
		for _, b := range hosts {
			if a == b {
				continue
			}
			h, err := nw.HopCount(a, b)
			if err != nil {
				return nil, err
			}
			r.hops[a][b] = h
		}
	}
	return r, nil
}

// Metric implements Ranker.
func (r *NearestRanker) Metric() Metric { return MetricNearest }

// Rank implements Ranker.
func (r *NearestRanker) Rank(topo *collector.Topology, from netsim.NodeID, _ int32, cands []int32, _ int64, s *rankScratch) []Candidate {
	hops := r.hops[from]
	out := s.out[:0]
	for _, j := range cands {
		node := netsim.NodeID(topo.HostName(int(j)))
		h, ok := hops[node]
		out = append(out, Candidate{Node: node, Hops: h, Reachable: ok})
	}
	s.out = out
	sortCandidates(out, func(a, b Candidate) bool { return a.Hops < b.Hops })
	return out
}

// RandomRanker is the paper's Random baseline: a uniformly random order for
// load balancing, oblivious to both distance and congestion.
type RandomRanker struct {
	rng *simtime.Rand
}

// NewRandomRanker creates a random ranker with its own deterministic
// sub-stream.
func NewRandomRanker(rng *simtime.Rand) *RandomRanker {
	return &RandomRanker{rng: rng.Stream("random-ranker")}
}

// Metric implements Ranker.
func (r *RandomRanker) Metric() Metric { return MetricRandom }

// Rank implements Ranker.
func (r *RandomRanker) Rank(topo *collector.Topology, _ netsim.NodeID, _ int32, cands []int32, _ int64, s *rankScratch) []Candidate {
	out := s.out[:0]
	for _, i := range r.rng.Perm(len(cands)) {
		out = append(out, Candidate{Node: netsim.NodeID(topo.HostName(int(cands[i]))), Reachable: true})
	}
	s.out = out
	return out
}

// sortCandidates sorts with the provided better-than predicate; unreachable
// candidates always sort last, and ties break by node ID so rankings are
// deterministic.
func sortCandidates(cs []Candidate, better func(a, b Candidate) bool) {
	slices.SortStableFunc(cs, func(a, b Candidate) int {
		switch {
		case a.Reachable != b.Reachable:
			if a.Reachable {
				return -1
			}
			return 1
		case a.Reachable && better(a, b):
			return -1
		case a.Reachable && better(b, a):
			return 1
		}
		return cmp.Compare(a.Node, b.Node)
	})
}
