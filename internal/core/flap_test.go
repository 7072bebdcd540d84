package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
)

// Flap tests: a link failure manifests to the collector as probe silence, a
// recovery as the stream resuming. Both transitions must advance the epoch so
// rank-cache entries from before the transition are never served after it.
// The package runs under -race in CI; the concurrent variant below exercises
// the eviction path against lock-free snapshot readers.

// flapFixture drives a service over a hand-clocked collector fed by three
// probe streams: dev and e1 reach sched via s1, e2 via s2-s1. Silencing e2
// models a failure of the s1-s2 link; resuming it models recovery.
type flapFixture struct {
	nw   *netsim.Network
	svc  *Service
	coll *collector.Collector
	now  atomic.Int64
	seq  uint64
}

func newFlapFixture(t *testing.T, cfg ServiceConfig) *flapFixture {
	t.Helper()
	f := &flapFixture{}
	f.now.Store(int64(time.Second))

	// The netsim network exists only to give the service a transport stack;
	// the collector's view is fed by hand-built probes below.
	nw := netsim.New(simtime.NewEngine())
	nw.AddSwitch("s1")
	nw.AddSwitch("s2")
	for _, h := range []netsim.NodeID{"dev", "e1", "sched"} {
		nw.AddHost(h)
		if _, err := nw.Connect(h, "s1", netsim.LinkConfig{RateBps: 100_000_000, Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	nw.AddHost("e2")
	if _, err := nw.Connect("e2", "s2", netsim.LinkConfig{RateBps: 100_000_000, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Connect("s2", "s1", netsim.LinkConfig{RateBps: 100_000_000, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	f.nw = nw
	domain := transport.NewDomain(nw).InstallAll()

	// QueueWindow 200 ms -> derived adjacency TTL of 1 s.
	f.coll = collector.New("sched", func() time.Duration { return time.Duration(f.now.Load()) },
		collector.Config{QueueWindow: 200 * time.Millisecond})
	f.svc = NewService(domain.Stack("sched"), f.coll, cfg)
	f.svc.Register(&DelayRanker{})
	return f
}

func (f *flapFixture) advance(d time.Duration) { f.now.Add(int64(d)) }

type flapHop struct {
	dev     string
	in, out int
}

// probeVia ingests one probe from origin whose INT stack lists the given
// switch hops (terminating at the collector).
func (f *flapFixture) probeVia(origin string, hops ...flapHop) {
	f.seq++
	now := time.Duration(f.now.Load())
	p := &telemetry.ProbePayload{Origin: origin, Seq: f.seq}
	for _, h := range hops {
		p.Stack.Append(telemetry.Record{
			Device: h.dev, IngressPort: h.in, EgressPort: h.out,
			LinkLatency: time.Millisecond, EgressTS: now - time.Millisecond,
		})
	}
	f.coll.HandleProbe(p)
}

// probeLive ingests fresh probes from the streams unaffected by the flap.
func (f *flapFixture) probeLive() {
	f.probeVia("dev", flapHop{dev: "s1", in: 1, out: 4})
	f.probeVia("e1", flapHop{dev: "s1", in: 2, out: 4})
}

// probeE2 ingests a probe from the stream that the flap silences.
func (f *flapFixture) probeE2() {
	f.probeVia("e2", flapHop{dev: "s2", in: 1, out: 2}, flapHop{dev: "s1", in: 3, out: 4})
}

func findCand(t *testing.T, cands []Candidate, node netsim.NodeID) Candidate {
	t.Helper()
	for _, c := range cands {
		if c.Node == node {
			return c
		}
	}
	t.Fatalf("candidate %s missing from %v", node, cands)
	return Candidate{}
}

// TestFlapInvalidatesRankCacheAcrossDownAndUp is the end-to-end contract for
// a link-down -> link-up flap: the epoch advances on the down transition
// (adjacency eviction, no probe involved) and again on the up transition
// (stream resumes), and the rank cache never serves a ranking computed on the
// other side of either transition.
func TestFlapInvalidatesRankCacheAcrossDownAndUp(t *testing.T) {
	f := newFlapFixture(t, ServiceConfig{})
	req := &QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true}

	// Phase 1: every stream fresh. All three candidates reachable.
	f.probeLive()
	f.probeE2()
	before := f.svc.RankFor(req)
	if len(before) != 3 {
		t.Fatalf("candidates %v, want e1, e2, sched", before)
	}
	for _, c := range before {
		if !c.Reachable {
			t.Fatalf("%s unreachable with fresh telemetry: %v", c.Node, before)
		}
	}

	// Phase 2: e2 goes silent while dev and e1 keep probing. Stop the live
	// probes before e2's TTL deadline (its last probe was at 1 s, so the
	// deadline is 2 s) and build a snapshot so the pre-eviction epoch is
	// pinned with a current cached snapshot.
	for i := 0; i < 4; i++ {
		f.advance(200 * time.Millisecond) // up to t = 1.8 s
		f.probeLive()
	}
	f.coll.Snapshot()
	preDown := f.coll.Epoch()

	// Cross the deadline with no probe at all: the expiry-triggered rebuild
	// must evict e2's edges and advance the epoch by itself.
	f.advance(400 * time.Millisecond) // t = 2.2 s
	down := f.svc.RankFor(req)
	if f.coll.Epoch() == preDown {
		t.Fatal("adjacency eviction did not advance the epoch")
	}
	if c := findCand(t, down, "e2"); c.Reachable {
		t.Fatalf("e2 still reachable after its stream aged out: %v", down)
	}
	for _, n := range []netsim.NodeID{"e1", "sched"} {
		if c := findCand(t, down, n); !c.Reachable {
			t.Fatalf("%s lost reachability though its stream is fresh: %v", n, down)
		}
	}
	if reflect.DeepEqual(before, down) {
		t.Fatal("down-period ranking identical to pre-fault ranking")
	}
	// While the topology is stable in the down state, the cache serves.
	downAgain := f.svc.RankFor(req)
	if !reflect.DeepEqual(down, downAgain) {
		t.Fatalf("unstable down-period ranking: %v vs %v", down, downAgain)
	}

	// Phase 3: the flap ends — e2's stream resumes. The probe advances the
	// epoch, so the recovery query must recompute, not serve the down-period
	// cache entry.
	preUp := f.coll.Epoch()
	f.advance(200 * time.Millisecond)
	f.probeLive()
	f.probeE2()
	if f.coll.Epoch() == preUp {
		t.Fatal("recovery probes did not advance the epoch")
	}
	up := f.svc.RankFor(req)
	if c := findCand(t, up, "e2"); !c.Reachable {
		t.Fatalf("e2 still unreachable after recovery: %v", up)
	}
	if reflect.DeepEqual(up, down) {
		t.Fatal("down-period ranking served after recovery")
	}
	recomputed := ComputeRanking(f.coll.Snapshot(), &DelayRanker{}, "dev", 0)
	if !reflect.DeepEqual(up, recomputed) {
		t.Fatalf("post-recovery RankFor %v, recomputation gives %v", up, recomputed)
	}

	st := f.svc.CacheStats()
	if st.Misses != 3 {
		t.Fatalf("stats %+v, want one computation per phase", st)
	}
	if st.Hits != 1 {
		t.Fatalf("stats %+v, want exactly the stable down-period hit", st)
	}
}

// TestExcludeUnreachableRecoveryPolicy: with the recovery policy on, a
// candidate whose learned path aged out is dropped from responses entirely —
// unless every candidate is unreachable, in which case the full estimate list
// is the graceful fallback.
func TestExcludeUnreachableRecoveryPolicy(t *testing.T) {
	f := newFlapFixture(t, ServiceConfig{ExcludeUnreachable: true})
	req := &QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true}
	f.probeLive()
	f.probeE2()
	if got := f.svc.RankFor(req); len(got) != 3 {
		t.Fatalf("pre-fault candidates %v, want 3", got)
	}

	// e2 silent past its TTL, the others fresh: e2 is excluded.
	for i := 0; i < 6; i++ {
		f.advance(200 * time.Millisecond)
		f.probeLive()
	}
	during := f.svc.RankFor(req)
	if len(during) != 2 {
		t.Fatalf("down-period candidates %v, want e2 excluded", during)
	}
	for _, c := range during {
		if c.Node == "e2" {
			t.Fatalf("e2 served despite ExcludeUnreachable: %v", during)
		}
	}

	// Everything silent past the TTL: no candidate is reachable, so the
	// policy falls back to returning the (unreachable) estimates rather
	// than an empty answer.
	f.advance(2 * time.Second)
	fallback := f.svc.RankFor(req)
	if len(fallback) != 3 {
		t.Fatalf("fallback candidates %v, want the full unreachable list", fallback)
	}
	for _, c := range fallback {
		if c.Reachable {
			t.Fatalf("%s reachable after total silence: %v", c.Node, fallback)
		}
	}

	// Recovery restores the filtered, reachable answer.
	f.advance(100 * time.Millisecond)
	f.probeLive()
	f.probeE2()
	after := f.svc.RankFor(req)
	if len(after) != 3 {
		t.Fatalf("post-recovery candidates %v, want 3", after)
	}
	for _, c := range after {
		if !c.Reachable {
			t.Fatalf("%s unreachable after recovery: %v", c.Node, after)
		}
	}
}

// TestConcurrentQueriesAcrossFlaps drives parallel RankFor calls while the
// main goroutine repeatedly flaps e2's stream (silence past the TTL, then
// resume). The eviction path inside snapshot rebuilds must be race-free
// against the lock-free snapshot readers (validated by go test -race).
func TestConcurrentQueriesAcrossFlaps(t *testing.T) {
	f := newFlapFixture(t, ServiceConfig{})
	f.probeLive()
	f.probeE2()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: true})
				if len(got) == 0 {
					t.Error("empty ranking during flap churn")
					return
				}
			}
		}()
	}
	for cycle := 0; cycle < 5; cycle++ {
		// Down: e2 silent for 1.2 s (past the 1 s TTL) while the others probe.
		for i := 0; i < 6; i++ {
			f.advance(200 * time.Millisecond)
			f.probeLive()
		}
		// Take one snapshot inside the down window so the eviction happens
		// deterministically even if no reader goroutine lands here.
		f.coll.Snapshot()
		// Up: e2 resumes.
		f.advance(100 * time.Millisecond)
		f.probeLive()
		f.probeE2()
	}
	close(stop)
	wg.Wait()
	if f.coll.Stats().AdjacencyEvictions == 0 {
		t.Fatal("flap cycles caused no evictions")
	}
}
