package core

import (
	"sync"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
)

// This file implements extensions beyond the paper's evaluated system,
// motivated by its own observations:
//
//   - Fig 8 shows 19-38% of tasks see zero or negative gain because
//     measurement jitter de-prioritizes nearest nodes under light
//     congestion; HysteresisRanker suppresses switching on small estimate
//     differences.
//   - Delay ranking favors nearby servers and bandwidth ranking favors
//     uncongested paths; TransferTimeRanker combines both using the task's
//     data size: estimated time = propagation delay + queueing + bytes /
//     bottleneck bandwidth.

// TransferTimeRanker estimates the end-to-end transfer completion time for
// a task of a known size: the delay estimate (Algorithm 1) plus the
// serialization time of the task's data through the path's bottleneck
// available bandwidth. With DataBytes == 0 it degenerates to delay ranking.
type TransferTimeRanker struct {
	// Delay estimates the latency component (DefaultK when nil).
	Delay *DelayRanker
	// Bandwidth estimates the bottleneck component (default calibration
	// when nil).
	Bandwidth *BandwidthRanker
	// MinBandwidthBps floors the bandwidth estimate so a fully congested
	// link (estimate 0) yields a large-but-finite time. Default 1% of
	// 20 Mbps.
	MinBandwidthBps float64
}

// Metric implements Ranker.
func (r *TransferTimeRanker) Metric() Metric { return MetricTransferTime }

// Rank implements Ranker. One path walk per candidate feeds both the delay
// and the bottleneck estimate.
func (r *TransferTimeRanker) Rank(topo *collector.Topology, _ netsim.NodeID, fromIdx int32, cands []int32, dataBytes int64, s *rankScratch) []Candidate {
	delay := r.Delay
	if delay == nil {
		delay = &DelayRanker{}
	}
	bw := r.Bandwidth
	if bw == nil {
		bw = &BandwidthRanker{}
	}
	k, cal := delay.k(), bw.calibration()
	floor := r.MinBandwidthBps
	if floor <= 0 {
		floor = 200_000 // 1% of the paper's 20 Mbps links
	}
	out := rankPaths(topo, fromIdx, cands, s, func(_ netsim.NodeID, p []int32) (time.Duration, float64) {
		bwBps := bw.bottleneckOverPath(topo, p, cal)
		avail := bwBps
		if avail < floor {
			avail = floor
		}
		est := delay.delayOverPath(topo, p, k)
		if dataBytes > 0 {
			est += time.Duration(float64(dataBytes*8) / avail * float64(time.Second))
		}
		return est, bwBps
	})
	sortCandidates(out, byDelay)
	return out
}

// HysteresisRanker wraps another ranker and suppresses candidate switching
// on marginal estimate changes: the previously chosen server for a device
// stays at the top of the list unless the new best candidate improves on
// it by more than Margin (relative). This directly targets the paper's
// Fig 8 observation that probing jitter causes suboptimal de-prioritization
// of nearest nodes when the network is only lightly congested.
type HysteresisRanker struct {
	// Inner is the wrapped ranker (required).
	Inner Ranker
	// Margin is the relative improvement required to switch away from the
	// previous choice (default 0.2 = 20%).
	Margin float64

	// mu guards last: the live daemon answers queries concurrently.
	mu   sync.Mutex
	last map[netsim.NodeID]netsim.NodeID // device -> previous top pick
}

// NewHysteresisRanker wraps inner with the given switching margin.
func NewHysteresisRanker(inner Ranker, margin float64) *HysteresisRanker {
	if margin <= 0 {
		margin = 0.2
	}
	return &HysteresisRanker{
		Inner:  inner,
		Margin: margin,
		last:   make(map[netsim.NodeID]netsim.NodeID),
	}
}

// Metric implements Ranker (it reports the wrapped ranker's metric).
func (r *HysteresisRanker) Metric() Metric { return r.Inner.Metric() }

// Rank implements Ranker: the wrapped ranking, reordered in place.
func (r *HysteresisRanker) Rank(topo *collector.Topology, from netsim.NodeID, fromIdx int32, cands []int32, dataBytes int64, s *rankScratch) []Candidate {
	ranked := r.Inner.Rank(topo, from, fromIdx, cands, dataBytes, s)
	if len(ranked) == 0 {
		return ranked
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	defer func() { r.last[from] = ranked[0].Node }()
	prev, ok := r.last[from]
	if !ok || prev == ranked[0].Node {
		return ranked
	}
	// Find the previous pick; keep it on top unless the new best clears
	// the margin.
	idx := -1
	for i := range ranked {
		if ranked[i].Node == prev {
			idx = i
			break
		}
	}
	if idx < 0 || !ranked[idx].Reachable {
		return ranked
	}
	if !r.withinMargin(ranked[0], ranked[idx]) {
		return ranked // improvement is substantial: switch
	}
	// Marginal difference: stick with the previous choice.
	prevCand := ranked[idx]
	copy(ranked[1:idx+1], ranked[0:idx])
	ranked[0] = prevCand
	return ranked
}

// withinMargin reports whether best improves on prev by no more than the
// margin, comparing on the wrapped metric's natural axis.
func (r *HysteresisRanker) withinMargin(best, prev Candidate) bool {
	switch r.Inner.Metric() {
	case MetricBandwidth:
		if best.BandwidthBps <= 0 {
			return true
		}
		return (best.BandwidthBps-prev.BandwidthBps)/best.BandwidthBps <= r.Margin
	default:
		if prev.Delay <= 0 {
			return true
		}
		return float64(prev.Delay-best.Delay)/float64(prev.Delay) <= r.Margin
	}
}
