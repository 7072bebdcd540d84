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

// TestRankerCacheability pins down which rankers may be memoized: pure
// functions of the snapshot yes; RNG-driven, stateful, or load-dependent
// rankers no.
func TestRankerCacheability(t *testing.T) {
	pure := []Ranker{&DelayRanker{}, &BandwidthRanker{}, &TransferTimeRanker{}, &NearestRanker{}}
	for _, r := range pure {
		if !RankerCacheable(r) {
			t.Errorf("%T must be cacheable", r)
		}
	}
	impure := []Ranker{
		NewHysteresisRanker(&DelayRanker{}, 0.2),
		NewRandomRanker(simtime.NewRand(1)),
		&ComputeAwareRanker{},
	}
	for _, r := range impure {
		if RankerCacheable(r) {
			t.Errorf("%T must not be cacheable", r)
		}
	}
}

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
	// ID-ordered view from the cache.
	unsorted := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: false})
	for i := 1; i < len(unsorted); i++ {
		if unsorted[i-1].Node > unsorted[i].Node {
			t.Fatalf("option two not ID-ordered: %v", unsorted)
		}
	}
	// Truncated view from the cache.
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

// TestRankCacheBypassedForCustomCandidates: a custom candidate function may
// close over mutable state the epoch does not version.
func TestRankCacheBypassedForCustomCandidates(t *testing.T) {
	f := newServiceFixture(t)
	calls := 0
	f.svc.SetCandidateFn(func(from netsim.NodeID) []netsim.NodeID {
		calls++
		return []netsim.NodeID{"e1"}
	})
	f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true})
	f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true})
	if calls != 2 {
		t.Fatalf("custom candidate fn called %d times, want every query", calls)
	}
	if st := f.svc.CacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("stats %+v, cache consulted despite custom candidates", st)
	}
}

// TestRankCacheInvalidatedByCapabilities: capability changes re-filter the
// candidate set, so cached rankings must be dropped.
func TestRankCacheInvalidatedByCapabilities(t *testing.T) {
	f := newServiceFixture(t)
	req := &QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true,
		Requirements: &Requirements{Hardware: []string{"gpu"}}}
	if got := f.svc.RankFor(req); len(got) != 0 {
		t.Fatalf("no server has a gpu yet: %v", got)
	}
	f.svc.SetCapabilities("e1", Capabilities{Hardware: []string{"gpu"}})
	if got := f.svc.RankFor(req); len(got) != 1 || got[0].Node != "e1" {
		t.Fatalf("stale capability filter served from cache: %v", got)
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

// TestRankCacheStoreDroppedAfterInvalidate: an Invalidate between a missed
// Lookup and the Store through its handle — the lost-invalidation race, e.g.
// SetCapabilities landing while a ranking is being computed — must drop the
// entry, since it may have been computed from the superseded inputs. So must
// an epoch advance: a ranking of the old topology is never served at the new.
func TestRankCacheStoreDroppedAfterInvalidate(t *testing.T) {
	var c RankCache
	key := RankKey{From: 3, Metric: MetricDelay}
	entry, miss := c.Lookup(7, key)
	if entry != nil {
		t.Fatal("unexpected hit in empty cache")
	}
	c.Invalidate()
	miss.Store([]Candidate{{Node: "stale"}})
	if entry, _ := c.Lookup(7, key); entry != nil {
		t.Fatalf("stale entry resurrected after Invalidate: %v", entry.Ranked())
	}
	// A handle taken at the current generation inserts.
	_, miss = c.Lookup(7, key)
	miss.Store([]Candidate{{Node: "fresh"}})
	if entry, _ := c.Lookup(7, key); entry == nil || entry.Ranked()[0].Node != "fresh" {
		t.Fatalf("current-generation entry not stored (entry=%v)", entry)
	}
	// A handle taken at epoch 7 and stored after the cache reached epoch 8
	// is invisible to epoch-8 lookups.
	other := RankKey{From: 4, Metric: MetricDelay}
	_, old := c.Lookup(7, other)
	c.Lookup(8, other)
	old.Store([]Candidate{{Node: "epoch7"}})
	if entry, _ := c.Lookup(8, other); entry != nil {
		t.Fatalf("epoch-7 ranking served at epoch 8: %v", entry.Ranked())
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
