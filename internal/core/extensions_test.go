package core

import (
	"testing"
	"time"
)

func TestTransferTimeRankerPrefersBandwidthForLargeTasks(t *testing.T) {
	// e1: clean but we make its branch moderately congested (queue 18 ->
	// util 0.8 -> 4 Mbps avail); e2: clean 20 Mbps.
	topo := learnedTopo(t, 18, 0)
	r := &TransferTimeRanker{}

	// Tiny task: bandwidth barely matters; both paths have equal latency
	// except e1's queueing penalty, so e2 wins for any size here. Instead
	// compare estimates directly.
	small := rankNamed(r, topo, "dev", 1_000, "e1", "e2")
	large := rankNamed(r, topo, "dev", 5_000_000, "e1", "e2")
	if small[0].Node != "e2" || large[0].Node != "e2" {
		t.Fatalf("congested branch won: small=%v large=%v", small, large)
	}
	// The estimate gap must grow with size: serialization over 4 Mbps vs
	// 20 Mbps dominates for 5 MB.
	gapSmall := small[1].Delay - small[0].Delay
	gapLarge := large[1].Delay - large[0].Delay
	if gapLarge <= gapSmall {
		t.Fatalf("size did not amplify the gap: %v vs %v", gapSmall, gapLarge)
	}
	// Sanity: 5 MB over 20 Mbps = 2 s baseline for the winner.
	if large[0].Delay < 2*time.Second || large[0].Delay > 3*time.Second {
		t.Fatalf("winner estimate %v, want ≈2s+latency", large[0].Delay)
	}
}

func TestTransferTimeRankerZeroSizeDegeneratesToDelay(t *testing.T) {
	topo := learnedTopo(t, 10, 0)
	tt := &TransferTimeRanker{}
	dl := &DelayRanker{}
	a := rankNamed(tt, topo, "dev", 0, "e1", "e2")
	b := rankNamed(dl, topo, "dev", 0, "e1", "e2")
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Delay != b[i].Delay {
			t.Fatalf("zero-size transfer-time != delay: %v vs %v", a, b)
		}
	}
}

func TestTransferTimeRankerFloorsDeadLinks(t *testing.T) {
	// Saturated branch: queue 45 -> util 1.0 -> avail 0; the floor must
	// keep the estimate finite.
	topo := learnedTopo(t, 45, 0)
	r := &TransferTimeRanker{}
	ranked := rankNamed(r, topo, "dev", 1_000_000, "e1")
	if ranked[0].Delay <= 0 || ranked[0].Delay > time.Hour {
		t.Fatalf("estimate %v not finite-and-positive", ranked[0].Delay)
	}
}

func TestTransferTimeRankerUnreachable(t *testing.T) {
	topo := learnedTopo(t, 0, 0)
	r := &TransferTimeRanker{}
	ranked := rankNamed(r, topo, "dev", 1000, "ghost", "e1")
	if ranked[0].Node != "e1" || ranked[1].Reachable {
		t.Fatalf("ranked %v", ranked)
	}
	if r.Metric() != MetricTransferTime {
		t.Fatal("metric")
	}
}

func TestHysteresisSticksOnMarginalChange(t *testing.T) {
	r := NewHysteresisRanker(&DelayRanker{K: 20 * time.Millisecond}, 0.5)

	// Round 1: e1 congested -> e2 chosen.
	topo := learnedTopo(t, 10, 0)
	ranked := rankNamed(r, topo, "dev", 0, "e1", "e2")
	if ranked[0].Node != "e2" {
		t.Fatalf("round 1: %v", ranked)
	}
	// Round 2: tiny queue blip on e2's branch makes e1 marginally better
	// (30ms vs 50ms = 40% improvement, within the 50% margin): stick.
	topo = learnedTopo(t, 0, 1)
	ranked = rankNamed(r, topo, "dev", 0, "e1", "e2")
	if ranked[0].Node != "e2" {
		t.Fatalf("round 2 switched on marginal change: %v", ranked)
	}
	// Both candidates still present.
	if len(ranked) != 2 || ranked[1].Node != "e1" {
		t.Fatalf("round 2 list corrupted: %v", ranked)
	}
	// Round 3: heavy congestion on e2's branch: must switch.
	topo = learnedTopo(t, 0, 30)
	ranked = rankNamed(r, topo, "dev", 0, "e1", "e2")
	if ranked[0].Node != "e1" {
		t.Fatalf("round 3 failed to switch under real congestion: %v", ranked)
	}
}

func TestHysteresisFirstQueryPassesThrough(t *testing.T) {
	r := NewHysteresisRanker(&DelayRanker{}, 0.2)
	topo := learnedTopo(t, 10, 0)
	ranked := rankNamed(r, topo, "dev", 0, "e1", "e2")
	if ranked[0].Node != "e2" {
		t.Fatalf("first query altered: %v", ranked)
	}
}

func TestHysteresisPerDeviceState(t *testing.T) {
	r := NewHysteresisRanker(&DelayRanker{}, 0.99)
	topo := learnedTopo(t, 10, 0)
	// dev picks e2; a different device's history must not affect dev.
	_ = rankNamed(r, topo, "dev", 0, "e1", "e2")
	topo2 := learnedTopo(t, 0, 10)
	rankedOther := rankNamed(r, topo2, "dev2", 0, "e1", "e2")
	if rankedOther[0].Node != "e1" {
		t.Fatalf("fresh device influenced by other device's history: %v", rankedOther)
	}
}

func TestHysteresisMetricPassthrough(t *testing.T) {
	r := NewHysteresisRanker(&BandwidthRanker{}, 0.2)
	if r.Metric() != MetricBandwidth {
		t.Fatal("wrapped metric not reported")
	}
}

func TestHysteresisBandwidthAxis(t *testing.T) {
	r := NewHysteresisRanker(&BandwidthRanker{}, 0.5)
	// Round 1: e1 congested -> e2.
	_ = rankNamed(r, learnedTopo(t, 30, 0), "dev", 0, "e1", "e2")
	// Round 2: mild congestion on e2's branch (queue 5 -> util .5,
	// avail 10 Mbps) vs clean e1 (20 Mbps): 50% improvement, at margin:
	// stick with e2.
	ranked := rankNamed(r, learnedTopo(t, 0, 5), "dev", 0, "e1", "e2")
	if ranked[0].Node != "e2" {
		t.Fatalf("switched at margin: %v", ranked)
	}
}
