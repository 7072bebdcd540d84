package core

import (
	"reflect"
	"testing"

	"intsched/internal/collector"
	"intsched/internal/netsim"
)

// rankEach answers a burst of queries one by one against ONE topology
// snapshot, so every request sees the same epoch; the result is
// index-aligned with reqs.
func rankEach(s *Service, reqs []*QueryRequest) [][]Candidate {
	topo := s.coll.Snapshot()
	out := make([][]Candidate, len(reqs))
	for i, req := range reqs {
		out[i] = s.RankOn(topo, req)
	}
	return out
}

// TestRankBatchMatchesSingleQueries: a burst answered on one snapshot must
// be exactly what N independent RankFor calls would return, across metrics,
// shaping variants, requirements, and unknown metrics.
func TestRankBatchMatchesSingleQueries(t *testing.T) {
	f := newServiceFixture(t)
	f.svc.Register(&TransferTimeRanker{})
	f.svc.SetCapabilities("e1", Capabilities{Hardware: []string{"gpu"}})
	reqs := []*QueryRequest{
		{From: "dev", Metric: MetricDelay, Sorted: true},
		{From: "e1", Metric: MetricDelay, Sorted: true},
		{From: "dev", Metric: MetricBandwidth, Sorted: true},
		{From: "dev", Metric: MetricDelay, Sorted: false},          // same key as [0], different shaping
		{From: "dev", Metric: MetricDelay, Sorted: true, Count: 1}, // same key as [0], truncated
		{From: "dev", Metric: MetricTransferTime, Sorted: true, DataBytes: 1 << 20},
		{From: "dev", Metric: MetricDelay, Sorted: true, Requirements: &Requirements{Hardware: []string{"gpu"}}},
		{From: "dev", Metric: MetricNearest, Sorted: true}, // no ranker registered: nil
	}
	// Reference: fresh fixture state answered one by one (same topology —
	// the engine is idle, so the epoch is frozen).
	want := make([][]Candidate, len(reqs))
	for i, req := range reqs {
		want[i] = f.svc.RankFor(req)
	}
	// Invalidate so the batch starts from a cold cache too, then compare.
	f.svc.engine.cache.Invalidate()
	got := rankEach(f.svc, reqs)
	if len(got) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(got), len(reqs))
	}
	for i := range reqs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("request %d: batch %v, single %v", i, got[i], want[i])
		}
	}
	// And a warm-cache batch (every key now cached) must agree as well.
	got = rankEach(f.svc, reqs)
	for i := range reqs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("warm request %d: batch %v, single %v", i, got[i], want[i])
		}
	}
}

// countingRanker wraps DelayRanker and counts ranking computations; the
// embedded ranker's RankCacheable()=true is promoted, so it is cacheable.
type countingRanker struct {
	DelayRanker
	calls int
}

func (r *countingRanker) Rank(topo *collector.Topology, from netsim.NodeID, fromIdx int32, cands []int32, dataBytes int64, s *rankScratch) []Candidate {
	r.calls++
	return r.DelayRanker.Rank(topo, from, fromIdx, cands, dataBytes, s)
}

// TestRankBatchDeduplicatesKeys: identical cache keys in one batch must be
// computed once, and later identical batches served entirely as hits.
func TestRankBatchDeduplicatesKeys(t *testing.T) {
	f := newServiceFixture(t)
	cr := &countingRanker{}
	f.svc.Register(cr)
	reqs := []*QueryRequest{
		{From: "dev", Metric: MetricDelay, Sorted: true},
		{From: "dev", Metric: MetricDelay, Sorted: false},
		{From: "dev", Metric: MetricDelay, Count: 1, Sorted: true},
	}
	rankEach(f.svc, reqs)
	if cr.calls != 1 {
		t.Fatalf("%d ranking computations for three identical keys, want one", cr.calls)
	}
	if st := f.svc.CacheStats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats %+v, want one miss and two hits in the first batch", st)
	}
	rankEach(f.svc, reqs)
	if cr.calls != 1 {
		t.Fatalf("warm batch recomputed: %d calls", cr.calls)
	}
	if st := f.svc.CacheStats(); st.Misses != 1 || st.Hits != 5 {
		t.Fatalf("stats %+v, want all hits on the second batch", st)
	}
	// The cached full list must not have been corrupted by the shaped
	// (unsorted, truncated) batch members.
	single := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true})
	if len(single) != 2 || single[0].Delay > single[1].Delay {
		t.Fatalf("cached ordering corrupted: %v", single)
	}
}

// TestRankBatchUncacheablePaths: custom candidate functions and uncacheable
// rankers must fall back to the per-request path, bypassing the cache.
func TestRankBatchUncacheablePaths(t *testing.T) {
	f := newServiceFixture(t)
	f.svc.Register(&ComputeAwareRanker{Network: &DelayRanker{}, LoadFn: f.svc.Load})
	got := rankEach(f.svc, []*QueryRequest{
		{From: "dev", Metric: MetricComputeAware, Sorted: true},
		{From: "dev", Metric: MetricDelay, Sorted: true},
	})
	if len(got[0]) == 0 || len(got[1]) == 0 {
		t.Fatalf("batch with mixed cacheability: %v", got)
	}
	if st := f.svc.CacheStats(); st.Misses != 1 {
		t.Fatalf("stats %+v: only the delay query may touch the cache", st)
	}
	// With a custom candidate function installed, every batch member must
	// bypass the cache (the function may close over unversioned state).
	calls := 0
	f.svc.SetCandidateFn(func(from netsim.NodeID) []netsim.NodeID {
		calls++
		return []netsim.NodeID{"e1"}
	})
	rankEach(f.svc, []*QueryRequest{
		{From: "dev", Metric: MetricDelay, Sorted: true},
		{From: "dev", Metric: MetricDelay, Sorted: true},
	})
	if calls != 2 {
		t.Fatalf("custom candidate fn called %d times, want every batch member", calls)
	}
}

// batchFixtureReqs builds a warm-cacheable batch: distinct (from, metric)
// keys, repeated to length n.
func batchFixtureReqs(n int) []*QueryRequest {
	froms := []netsim.NodeID{"dev", "e1", "sched"}
	metrics := []Metric{MetricDelay, MetricBandwidth}
	reqs := make([]*QueryRequest, n)
	for i := range reqs {
		reqs[i] = &QueryRequest{
			From:   froms[i%len(froms)],
			Metric: metrics[(i/len(froms))%len(metrics)],
			Sorted: true,
		}
	}
	return reqs
}

// TestWarmRankAllocations pins the steady-state allocation contract of the
// index-space read path: a warm single query is allocation-free (a cache
// hit is served as zero-copy views of the shared entry), and a warm
// N-request burst allocates only its result slice, independent of N.
func TestWarmRankAllocations(t *testing.T) {
	f := newServiceFixture(t)
	reqs := batchFixtureReqs(16)
	rankEach(f.svc, reqs) // warm every key
	single := testing.AllocsPerRun(200, func() {
		for _, req := range reqs {
			f.svc.RankFor(req)
		}
	})
	if single != 0 {
		t.Fatalf("warm single queries allocated %.1f per run, want 0 (zero-copy entry views)", single)
	}
	batch := testing.AllocsPerRun(200, func() {
		rankEach(f.svc, reqs)
	})
	if batch > 1 {
		t.Fatalf("warm batch allocated %.1f per run, want at most its result slice", batch)
	}
}

func BenchmarkRankForWarm(b *testing.B) {
	f := newServiceFixture(&testing.T{})
	req := &QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true}
	f.svc.RankFor(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.svc.RankFor(req)
	}
}

func BenchmarkRankBatchWarm(b *testing.B) {
	f := newServiceFixture(&testing.T{})
	reqs := batchFixtureReqs(16)
	rankEach(f.svc, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankEach(f.svc, reqs)
	}
}
