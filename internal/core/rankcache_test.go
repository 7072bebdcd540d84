package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
)

// TestRankCacheHitWithinEpoch: repeated identical queries between probe
// arrivals must be served from the cache with identical results.
func TestRankCacheHitWithinEpoch(t *testing.T) {
	f := newServiceFixture(t)
	req := &QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true}
	first := f.svc.RankFor(req)
	second := f.svc.RankFor(req)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result diverged: %v vs %v", first, second)
	}
	st := f.svc.CacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 1 miss then 1 hit", st)
	}
}

// TestRankCacheInvalidatesOnEpochAdvance: a new probe must flush the cache
// so rankings reflect the new telemetry.
func TestRankCacheInvalidatesOnEpochAdvance(t *testing.T) {
	f := newServiceFixture(t)
	req := &QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true}
	f.svc.RankFor(req)
	epoch := f.coll.Epoch()
	// Run the simulation so fresh probes arrive (100 ms cadence).
	f.engine.Run(f.engine.Now() + 300*time.Millisecond)
	if f.coll.Epoch() == epoch {
		t.Fatal("probes did not advance the epoch")
	}
	f.svc.RankFor(req)
	st := f.svc.CacheStats()
	if st.Misses != 2 {
		t.Fatalf("stats %+v, want a second miss after epoch advance", st)
	}
	if st.Invalidations == 0 {
		t.Fatal("no invalidation recorded")
	}
}

// TestRankCacheServesShapedRequests: Sorted=false and Count shape a private
// copy; the cached full list must stay intact and best-first.
func TestRankCacheServesShapedRequests(t *testing.T) {
	f := newServiceFixture(t)
	sorted := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true})
	if len(sorted) != 2 {
		t.Fatalf("candidates %v", sorted)
	}
	// ID-ordered answer from the cache.
	unsorted := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: false})
	for i := 1; i < len(unsorted); i++ {
		if unsorted[i-1].Node > unsorted[i].Node {
			t.Fatalf("option two not ID-ordered: %v", unsorted)
		}
	}
	// Truncated answer from the cache.
	top := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Count: 1, Sorted: true})
	if len(top) != 1 || top[0].Node != sorted[0].Node {
		t.Fatalf("count-limited view %v, want best %v", top, sorted[0].Node)
	}
	// The cached ordering must have survived the ID-sort of the unsorted
	// view.
	again := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true})
	if !reflect.DeepEqual(sorted, again) {
		t.Fatalf("cache corrupted by shaped request: %v vs %v", sorted, again)
	}
	if st := f.svc.CacheStats(); st.Misses != 1 {
		t.Fatalf("stats %+v, want a single computation", st)
	}
}

// TestRankCacheKeySeparation: different devices, metrics, and data sizes
// must not share entries.
func TestRankCacheKeySeparation(t *testing.T) {
	f := newServiceFixture(t)
	f.svc.Register(&TransferTimeRanker{})
	a := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricTransferTime, Sorted: true, DataBytes: 1 << 20})
	b := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricTransferTime, Sorted: true, DataBytes: 1 << 24})
	if a[0].Delay == b[0].Delay {
		t.Fatalf("different sizes produced identical estimates: %v vs %v", a[0], b[0])
	}
	if st := f.svc.CacheStats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats %+v, want two distinct computations", st)
	}
	f.svc.RankFor(&QueryRequest{From: "e1", Metric: MetricDelay, Sorted: true})
	f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true})
	if st := f.svc.CacheStats(); st.Hits != 0 {
		t.Fatalf("stats %+v, cross-key hit", st)
	}
}

// TestRankCacheInvalidatedByQueueWindowExpiry: windowed queue maxima change
// when a report ages out of the queue window even though no probe arrived;
// the expiry-driven snapshot rebuild advances the epoch, so RankFor must
// recompute instead of serving the ranking cached against the pre-expiry
// maxima.
func TestRankCacheInvalidatedByQueueWindowExpiry(t *testing.T) {
	engine := simtime.NewEngine()
	nw := netsim.New(engine)
	nw.AddSwitch("s1")
	for _, h := range []netsim.NodeID{"dev", "sched"} {
		nw.AddHost(h)
		if _, err := nw.Connect(h, "s1", netsim.LinkConfig{RateBps: 100_000_000, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	domain := transport.NewDomain(nw).InstallAll()
	// Hand-driven clock: the report must age out with no probe (and no
	// simulation event) in between, which the fixture's fleet cannot do.
	now := time.Second
	coll := collector.New("sched", func() time.Duration { return now },
		collector.Config{QueueWindow: 200 * time.Millisecond})
	svc := NewService(domain.Stack("sched"), coll, ServiceConfig{})
	svc.Register(&DelayRanker{})

	// One probe teaches dev--s1--sched and reports a deep queue on s1's
	// egress port toward sched.
	p := &telemetry.ProbePayload{Origin: "dev", Seq: 1}
	p.Stack.Append(telemetry.Record{
		Device: "s1", IngressPort: 0, EgressPort: 2,
		LinkLatency: time.Millisecond, EgressTS: now,
		Queues: []telemetry.PortQueue{{Port: 2, MaxQueue: 40, Packets: 5}},
	})
	coll.HandleProbe(p)

	req := &QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true}
	before := svc.RankFor(req)
	if len(before) != 1 || before[0].Node != "sched" {
		t.Fatalf("candidates %v, want just sched", before)
	}
	// Age the queue report out of the window without any probe arriving.
	now += 250 * time.Millisecond
	after := svc.RankFor(req)
	recomputed := ComputeRanking(coll.Snapshot(), &DelayRanker{}, "dev", 0)
	if !reflect.DeepEqual(after, recomputed) {
		t.Fatalf("post-expiry RankFor %v, recomputation gives %v", after, recomputed)
	}
	if after[0].Delay >= before[0].Delay {
		t.Fatalf("queue penalty survived expiry: before %v, after %v", before[0].Delay, after[0].Delay)
	}
}

// TestConcurrentQueriesWhileProbesMutate drives parallel RankFor calls
// against live probe ingestion — the epoch-versioned read path must be
// race-free (validated by go test -race).
func TestConcurrentQueriesWhileProbesMutate(t *testing.T) {
	f := newServiceFixture(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			metrics := []Metric{MetricDelay, MetricBandwidth}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got := f.svc.RankFor(&QueryRequest{From: "dev", Metric: metrics[i%2], Sorted: true})
				if len(got) == 0 {
					t.Error("empty ranking during churn")
					return
				}
			}
		}(g)
	}
	// Mutate collector state concurrently: direct probe ingestion at high
	// rate (the transport path would need the single-threaded engine).
	for i := 0; i < 500; i++ {
		p := &telemetry.ProbePayload{Origin: "dev", Seq: uint64(1_000_000 + i)}
		p.Stack.Append(telemetry.Record{
			Device: "s1", IngressPort: 0, EgressPort: 2,
			LinkLatency: time.Millisecond, EgressTS: f.engine.Now(),
			Queues: []telemetry.PortQueue{{Port: 2, MaxQueue: i % 20, Packets: 5}},
		})
		f.coll.HandleProbe(p)
	}
	close(stop)
	wg.Wait()
}

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

// TestQueryBurstMatchesSingleQueries: a burst answered on one snapshot must
// be exactly what N independent RankFor calls would return, across metrics,
// shaping variants, and unknown metrics.
func TestQueryBurstMatchesSingleQueries(t *testing.T) {
	// Two fixtures replay the same simulation, so both start from a cold
	// cache over equal topologies.
	f, ref := newServiceFixture(t), newServiceFixture(t)
	f.svc.Register(&TransferTimeRanker{})
	ref.svc.Register(&TransferTimeRanker{})
	reqs := []*QueryRequest{
		{From: "dev", Metric: MetricDelay, Sorted: true},
		{From: "e1", Metric: MetricDelay, Sorted: true},
		{From: "dev", Metric: MetricBandwidth, Sorted: true},
		{From: "dev", Metric: MetricDelay, Sorted: false},          // same key as [0], different shaping
		{From: "dev", Metric: MetricDelay, Sorted: true, Count: 1}, // same key as [0], truncated
		{From: "dev", Metric: MetricTransferTime, Sorted: true, DataBytes: 1 << 20},
		{From: "dev", Metric: MetricNearest, Sorted: true}, // no ranker registered: nil
	}
	// Reference: answered one by one (the engine is idle, so the epoch is
	// frozen).
	want := make([][]Candidate, len(reqs))
	for i, req := range reqs {
		want[i] = ref.svc.RankFor(req)
	}
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

// countingRanker wraps DelayRanker and counts ranking computations.
type countingRanker struct {
	DelayRanker
	calls int
}

func (r *countingRanker) Rank(topo *collector.Topology, from netsim.NodeID, fromIdx collector.NodeIdx, fromHost int, dataBytes int64, count int, s *rankScratch) []Candidate {
	r.calls++
	return r.DelayRanker.Rank(topo, from, fromIdx, fromHost, dataBytes, count, s)
}

// TestQueryBurstComputesEachKeyOnce: identical cache keys in one burst must be
// computed once, and later identical bursts served entirely as hits.
func TestQueryBurstComputesEachKeyOnce(t *testing.T) {
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

// engineFixture is newServiceFixture with all five rankers registered.
func engineFixture(t *testing.T) *serviceFixture {
	t.Helper()
	f := newServiceFixture(t)
	f.svc.Register(&TransferTimeRanker{})
	nearest, err := NewNearestRanker(f.nw, []netsim.NodeID{"dev", "e1", "sched"})
	if err != nil {
		t.Fatal(err)
	}
	f.svc.Register(nearest)
	f.svc.Register(NewRandomRanker(simtime.NewRand(1)))
	return f
}

// TestRankerCacheability pins down which rankers are memoized: pure
// functions of the snapshot and the query yes, the RNG-driven one no.
func TestRankerCacheability(t *testing.T) {
	f := engineFixture(t)
	for i, m := range []Metric{MetricDelay, MetricBandwidth, MetricNearest, MetricTransferTime} {
		req := &QueryRequest{From: "dev", Metric: m, Sorted: true}
		if first, again := f.svc.RankFor(req), f.svc.RankFor(req); len(first) != 2 || !reflect.DeepEqual(first, again) {
			t.Fatalf("%v answers %v, %v", m, first, again)
		}
		if st := f.svc.CacheStats(); st.Misses != uint64(i+1) || st.Hits != uint64(i+1) {
			t.Fatalf("stats %+v after %v: want one miss and one hit per pure ranker", st, m)
		}
	}
	before := f.svc.CacheStats()
	for i := 0; i < 2; i++ {
		if got := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricRandom, Sorted: true}); len(got) != 2 {
			t.Fatalf("random answer %v", got)
		}
	}
	if st := f.svc.CacheStats(); st != before {
		t.Fatalf("stats %+v -> %+v: the random ranker consulted the cache", before, st)
	}
}

// TestQueryBurstUncacheablePaths: what the epoch does not version — the
// random ranker's RNG draw — and what the index-space key cannot name — a
// requester that is not a host of the snapshot — is computed per request
// beside cacheable members of the same burst, and never touches the cache.
func TestQueryBurstUncacheablePaths(t *testing.T) {
	f := engineFixture(t)
	got := rankEach(f.svc, []*QueryRequest{
		{From: "dev", Metric: MetricRandom, Sorted: true},
		{From: "dev", Metric: MetricDelay, Sorted: true},
		{From: "stranger", Metric: MetricDelay, Sorted: true},
		{From: "stranger", Metric: MetricDelay, Sorted: true},
	})
	if len(got[0]) != 2 || len(got[1]) != 2 {
		t.Fatalf("batch with mixed cacheability: %v", got)
	}
	// A requester the snapshot does not know excludes nobody and reaches
	// nobody.
	if len(got[2]) != 3 || got[2][0].Reachable || !reflect.DeepEqual(got[2], got[3]) {
		t.Fatalf("non-host requester answers %v, %v", got[2], got[3])
	}
	if st := f.svc.CacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats %+v: only the delay query from a host may touch the cache", st)
	}
}

// TestRankCacheStoreAcrossEpochs: a ranking goes in only through the handle
// of the lookup that missed, under that lookup's epoch and key, so a ranking
// of the old topology is never served at the new.
func TestRankCacheStoreAcrossEpochs(t *testing.T) {
	var c rankCache
	key := cacheKey{from: 3, metric: MetricDelay}
	entry, miss := c.lookup(7, key, 0)
	if entry != nil {
		t.Fatal("unexpected hit in empty cache")
	}
	miss.store([]Candidate{{Node: "fresh"}}, true)
	if entry, _ := c.lookup(7, key, 0); entry == nil || entry.ranked[0].Node != "fresh" {
		t.Fatalf("stored entry not served (entry=%v)", entry)
	}
	// A handle taken at epoch 7 and stored after the cache reached epoch 8
	// is invisible to epoch-8 lookups.
	other := cacheKey{from: 4, metric: MetricDelay}
	_, old := c.lookup(7, other, 0)
	c.lookup(8, other, 0)
	old.store([]Candidate{{Node: "epoch7"}}, true)
	if entry, _ := c.lookup(8, other, 0); entry != nil {
		t.Fatalf("epoch-7 ranking served at epoch 8: %v", entry.ranked)
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
// index-space read path: a warm query answered into a reused buffer is
// allocation-free, a warm burst of 16 answers appended into one reused
// buffer is too, and a warm RankFor allocates exactly its result.
func TestWarmRankAllocations(t *testing.T) {
	f := newServiceFixture(t)
	reqs := batchFixtureReqs(16)
	rankEach(f.svc, reqs) // warm every key
	topo := f.coll.Snapshot()
	var buf []Candidate
	single := testing.AllocsPerRun(200, func() {
		for _, req := range reqs {
			buf, _ = f.svc.engine.Answer(buf[:0], topo, req)
		}
	})
	if single != 0 {
		t.Fatalf("warm single answers allocated %.1f per run, want 0 (a copy into the caller's buffer)", single)
	}
	batch := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		for _, req := range reqs {
			buf, _ = f.svc.engine.Answer(buf, topo, req)
		}
	})
	if batch != 0 {
		t.Fatalf("warm batch allocated %.1f per run, want 0 (16 answers appended into one buffer)", batch)
	}
	if owned := testing.AllocsPerRun(200, func() { f.svc.RankFor(reqs[0]) }); owned != 1 {
		t.Fatalf("warm RankFor allocated %.1f per run, want exactly its result", owned)
	}
}

// TestUncachedRankOnShapesInPlace: a query the rank cache cannot key — here
// from a switch, not a host — computes a private ranking, and RankOn, which
// passes no buffer, shapes that ranking in place instead of copying it: one
// allocation. Each shape equals the answer appended into a caller's buffer.
func TestUncachedRankOnShapesInPlace(t *testing.T) {
	f := newServiceFixture(t)
	topo := f.coll.Snapshot()
	reqs := []*QueryRequest{
		{From: "s1", Metric: MetricDelay, Sorted: true},
		{From: "s1", Metric: MetricBandwidth}, // option two: ID order
		{From: "s1", Metric: MetricDelay, Sorted: true, Count: 2},
	}
	for _, req := range reqs {
		got := f.svc.RankOn(topo, req)
		want, _ := f.svc.engine.Answer(make([]Candidate, 0, 8), topo, req)
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: RankOn %v, appended answer %v", *req, got, want)
		}
	}
	if raceEnabled {
		t.Skip("the ranking's pooled scratch is reallocated at random under -race")
	}
	if n := testing.AllocsPerRun(200, func() { f.svc.RankOn(topo, reqs[0]) }); n != 1 {
		t.Fatalf("uncached RankOn allocated %.1f per run, want 1 (the private ranking, shaped in place)", n)
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

func BenchmarkQueryBurstWarm(b *testing.B) {
	f := newServiceFixture(&testing.T{})
	reqs := batchFixtureReqs(16)
	rankEach(f.svc, reqs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankEach(f.svc, reqs)
	}
}
