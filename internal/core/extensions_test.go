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
