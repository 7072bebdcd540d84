package core

import (
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
)

// This file holds the one ranker beyond the paper's evaluated system that
// kept its place in the ablation trial (DESIGN §8): delay ranking favors
// nearby servers and bandwidth ranking favors uncongested paths;
// TransferTimeRanker combines both using the task's data size: estimated
// time = propagation delay + queueing + bytes / bottleneck bandwidth.

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
}

// minBandwidthBps floors TransferTimeRanker's bandwidth estimate so that a
// fully congested path (estimate 0) yields a large but finite time: 1% of the
// paper's 20 Mbps links.
const minBandwidthBps = 200_000

// Metric implements Ranker.
func (r *TransferTimeRanker) Metric() Metric { return MetricTransferTime }

// Rank implements Ranker. The one fold of each walk root feeds both the
// delay and the bottleneck estimate.
func (r *TransferTimeRanker) Rank(topo *collector.Topology, _ netsim.NodeID, fromIdx collector.NodeIdx, fromHost int, dataBytes int64, count int, s *rankScratch) []Candidate {
	delay := r.Delay
	if delay == nil {
		delay = &DelayRanker{}
	}
	bw := r.Bandwidth
	if bw == nil {
		bw = &BandwidthRanker{}
	}
	k, cal := delay.k(), bw.calibration()
	return rankPaths(topo, fromIdx, fromHost, count, s, cal, func(c *Candidate, f pathFold) int64 {
		c.BandwidthBps = f.bandwidth()
		c.Delay = f.delay(k)
		if dataBytes > 0 {
			c.Delay += time.Duration(float64(dataBytes*8) / max(c.BandwidthBps, minBandwidthBps) * float64(time.Second))
		}
		return int64(c.Delay)
	})
}
