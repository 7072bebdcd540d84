package core

import (
	"math"
	"slices"
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
)

// learnedTopo builds a collector-learned star: device "dev" on s1; servers
// e1 via s1-s2 (queue q12 on that direction), e2 via s1-s3 (queue q13).
// All link latencies 10ms. A fourth host, "ghost", probed once via s9 long
// enough ago that its edges have aged out: still a host, with no path.
func learnedTopo(t *testing.T, q12, q13 int) *collector.Topology {
	t.Helper()
	now := time.Second
	clock := func() time.Duration { return now }
	c := collector.New("sched", clock, collector.Config{
		QueueWindow:        time.Second,
		DefaultLinkRateBps: 20_000_000,
	})
	probe := func(origin string, devs ...telemetry.Record) {
		p := &telemetry.ProbePayload{Origin: origin, Seq: 1}
		for _, r := range devs {
			p.Stack.Append(r)
		}
		c.HandleProbe(p)
	}
	lat := 10 * time.Millisecond
	probe("ghost", telemetry.Record{Device: "s9", IngressPort: 0, EgressPort: 1, LinkLatency: lat, EgressTS: now})
	now += time.Minute // past the adjacency TTL (5 queue windows)
	// Queue reports for s1: port0=dev, port1=s2, port2=s3, port3=sched.
	s1q := []telemetry.PortQueue{{Port: 1, MaxQueue: q12, Packets: 1}, {Port: 2, MaxQueue: q13, Packets: 1}}
	// e1 probes: e1 -> s2 -> s1 -> sched.
	probe("e1",
		telemetry.Record{Device: "s2", IngressPort: 0, EgressPort: 1, LinkLatency: lat, EgressTS: now},
		telemetry.Record{Device: "s1", IngressPort: 1, EgressPort: 3, LinkLatency: lat, EgressTS: now, Queues: s1q},
	)
	// e2 probes: e2 -> s3 -> s1 -> sched.
	probe("e2",
		telemetry.Record{Device: "s3", IngressPort: 0, EgressPort: 1, LinkLatency: lat, EgressTS: now},
		telemetry.Record{Device: "s1", IngressPort: 2, EgressPort: 3, LinkLatency: lat, EgressTS: now, Queues: s1q},
	)
	// dev probes: dev -> s1 -> sched.
	probe("dev",
		telemetry.Record{Device: "s1", IngressPort: 0, EgressPort: 3, LinkLatency: lat, EgressTS: now, Queues: s1q},
	)
	return c.Snapshot()
}

// hostsTopo builds a collector-learned star in which every named node is a
// host probing through switch s1 to the scheduler.
func hostsTopo(hosts ...string) *collector.Topology {
	now := time.Second
	c := collector.New("sched", func() time.Duration { return now }, collector.Config{})
	for i, h := range hosts {
		p := &telemetry.ProbePayload{Origin: h, Seq: 1}
		p.Stack.Append(telemetry.Record{Device: "s1", IngressPort: i + 1, EgressPort: 0, LinkLatency: time.Millisecond, EgressTS: now})
		c.HandleProbe(p)
	}
	return c.Snapshot()
}

// rankNamed ranks topo's hosts for from with r and keeps the named ones, in
// ranked order (the order is total, so leaving candidates out moves nobody).
func rankNamed(r Ranker, topo *collector.Topology, from netsim.NodeID, dataBytes int64, names ...netsim.NodeID) []Candidate {
	for _, name := range names {
		if topo.HostIndex(string(name)) < 0 {
			panic("rankNamed: " + name + " is not a host of the snapshot")
		}
	}
	var out []Candidate
	for _, c := range ComputeRanking(topo, r, from, dataBytes) {
		if slices.Contains(names, c.Node) {
			out = append(out, c)
		}
	}
	return out
}

func TestDelayRankerAlgorithm1(t *testing.T) {
	// e1's branch congested (queue 10 toward s2), e2's clean.
	topo := learnedTopo(t, 10, 0)
	r := &DelayRanker{K: 20 * time.Millisecond}
	ranked := rankNamed(r, topo, "dev", 0, "e1", "e2")
	if len(ranked) != 2 {
		t.Fatalf("ranked %v", ranked)
	}
	if ranked[0].Node != "e2" {
		t.Fatalf("congested server ranked first: %v", ranked)
	}
	// e2: 3 links x 10ms = 30ms, no queueing.
	if ranked[0].Delay != 30*time.Millisecond {
		t.Errorf("e2 delay %v, want 30ms", ranked[0].Delay)
	}
	// e1: 30ms + 10 packets x 20ms = 230ms.
	if ranked[1].Delay != 230*time.Millisecond {
		t.Errorf("e1 delay %v, want 230ms", ranked[1].Delay)
	}
}

func TestDelayRankerDefaultK(t *testing.T) {
	topo := learnedTopo(t, 1, 0)
	r := &DelayRanker{} // zero K -> DefaultK (20ms)
	cand := rankNamed(r, topo, "dev", 0, "e1")[0]
	if !cand.Reachable || cand.Delay != 30*time.Millisecond+DefaultK {
		t.Fatalf("candidate %+v", cand)
	}
}

func TestDelayRankerUnreachableSortsLast(t *testing.T) {
	topo := learnedTopo(t, 0, 0)
	r := &DelayRanker{}
	ranked := rankNamed(r, topo, "dev", 0, "ghost", "e1")
	if ranked[0].Node != "e1" || ranked[1].Node != "ghost" {
		t.Fatalf("ranked %v", ranked)
	}
	if ranked[1].Reachable {
		t.Fatal("ghost marked reachable")
	}
}

func TestDelayRankerDeterministicTies(t *testing.T) {
	topo := learnedTopo(t, 0, 0)
	r := &DelayRanker{}
	ranked := rankNamed(r, topo, "dev", 0, "e2", "e1")
	// Equal delays: sorted by node ID.
	if ranked[0].Node != "e1" || ranked[1].Node != "e2" {
		t.Fatalf("tie-break wrong: %v", ranked)
	}
}

func TestBandwidthRankerBottleneck(t *testing.T) {
	// e1 branch congested: queue 30 -> utilization 0.95 -> avail 1 Mbps.
	topo := learnedTopo(t, 30, 0)
	r := &BandwidthRanker{}
	ranked := rankNamed(r, topo, "dev", 0, "e1", "e2")
	if ranked[0].Node != "e2" {
		t.Fatalf("ranked %v", ranked)
	}
	if ranked[0].BandwidthBps != 20_000_000 {
		t.Errorf("clean path bw %.0f, want 20M", ranked[0].BandwidthBps)
	}
	want := 20_000_000 * (1 - DefaultCalibration().Utilization(30))
	if diff := ranked[1].BandwidthBps - want; diff > 1 || diff < -1 {
		t.Errorf("congested bw %.0f, want %.0f", ranked[1].BandwidthBps, want)
	}
}

func TestNearestRankerUsesStaticHops(t *testing.T) {
	engine := simtime.NewEngine()
	nw := netsim.New(engine)
	// chain: a - s1 - b, and c two switches away: a - s1 - s2 - c.
	nw.AddHost("a")
	nw.AddHost("b")
	nw.AddHost("c")
	nw.AddSwitch("s1")
	nw.AddSwitch("s2")
	cfg := netsim.LinkConfig{RateBps: 1_000_000, Delay: time.Millisecond}
	for _, pr := range [][2]netsim.NodeID{{"a", "s1"}, {"b", "s1"}, {"s1", "s2"}, {"c", "s2"}} {
		if _, err := nw.Connect(pr[0], pr[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	r, err := NewNearestRanker(nw, []netsim.NodeID{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	ranked := rankNamed(r, hostsTopo("a", "b", "c"), "a", 0, "c", "b")
	if ranked[0].Node != "b" || ranked[0].Hops != 2 {
		t.Fatalf("nearest wrong: %v", ranked)
	}
	if ranked[1].Node != "c" || ranked[1].Hops != 3 {
		t.Fatalf("second wrong: %v", ranked)
	}
}

func TestRandomRankerPermutesDeterministically(t *testing.T) {
	cands := []netsim.NodeID{"a", "b", "c", "d", "e"}
	topo := hostsTopo("a", "b", "c", "d", "e")
	r1 := NewRandomRanker(simtime.NewRand(5))
	r2 := NewRandomRanker(simtime.NewRand(5))
	seq1 := rankNamed(r1, topo, "x", 0, cands...)
	seq2 := rankNamed(r2, topo, "x", 0, cands...)
	for i := range seq1 {
		if seq1[i].Node != seq2[i].Node {
			t.Fatal("same seed produced different permutations")
		}
	}
	// All candidates present exactly once.
	seen := map[netsim.NodeID]bool{}
	for _, c := range seq1 {
		if seen[c.Node] {
			t.Fatal("duplicate in permutation")
		}
		seen[c.Node] = true
	}
	if len(seen) != len(cands) {
		t.Fatal("missing candidates")
	}
	// Successive calls differ (eventually).
	diff := false
	for i := 0; i < 10 && !diff; i++ {
		next := rankNamed(r1, topo, "x", 0, cands...)
		for j := range next {
			if next[j].Node != seq1[j].Node {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("random ranker frozen")
	}
}

// TestEveryRankerReachableFirst: every registered ranker's output groups
// reachable candidates before unreachable ones on a snapshot with evicted
// hosts — what lets a rank entry serve the recovery policy's filter, in
// either order, as a prefix of the stored list.
func TestEveryRankerReachableFirst(t *testing.T) {
	f := newFlapFixture(t, ServiceConfig{})
	f.svc.Register(&BandwidthRanker{})
	f.svc.Register(&TransferTimeRanker{})
	nearest, err := NewNearestRanker(f.nw, []netsim.NodeID{"dev", "e1", "e2", "sched"})
	if err != nil {
		t.Fatal(err)
	}
	f.svc.Register(nearest)
	f.svc.Register(NewRandomRanker(simtime.NewRand(3)))
	// e2 falls silent past its TTL while the others keep probing.
	f.probeLive()
	f.probeE2()
	for i := 0; i < 6; i++ {
		f.advance(200 * time.Millisecond)
		f.probeLive()
	}
	topo := f.coll.Snapshot()
	if len(f.svc.engine.rankers) != len(metricNames) {
		t.Fatalf("%d rankers registered for %d metrics", len(f.svc.engine.rankers), len(metricNames))
	}
	for m, r := range f.svc.engine.rankers {
		ranked := ComputeRanking(topo, r, "dev", 1<<20)
		if len(ranked) != 3 {
			t.Fatalf("%v: candidates %v, want e1, e2, sched", m, ranked)
		}
		// The learned-path rankers must see the eviction; nearest and
		// random never consult the learned topology.
		learned := m != MetricNearest && m != MetricRandom
		if c := findCand(t, ranked, "e2"); c.Reachable == learned {
			t.Fatalf("%v: evicted e2 reachable=%v in %v", m, c.Reachable, ranked)
		}
		entry := newRankEntry(ranked, true)
		lists := [][]Candidate{entry.ranked}
		if m != MetricRandom { // the engine never asks it for ID order
			lists = append(lists, rank(topo, r, "dev", topo.HostIndex("dev"), 1<<20, 0, true))
		}
		for _, list := range lists {
			for i, c := range list {
				if c.Reachable != (i < entry.reach) {
					t.Fatalf("%v: %v is not reachable-first with a reachable prefix of %d", m, list, entry.reach)
				}
			}
		}
		want := 3
		if learned {
			want = 2
		}
		if got := entry.appendShaped(nil, true, 0); len(got) != want {
			t.Fatalf("%v: recovery filter kept %v", m, got)
		}
	}
}

// TestMetricStringsAndParse: the metric names are the CLI and wire
// vocabulary; names of retired metrics must not parse.
func TestMetricStringsAndParse(t *testing.T) {
	for _, tc := range []struct {
		m    Metric
		name string
	}{
		{MetricDelay, "delay"},
		{MetricBandwidth, "bandwidth"},
		{MetricNearest, "nearest"},
		{MetricRandom, "random"},
		{MetricTransferTime, "transfer-time"},
	} {
		if got := tc.m.String(); got != tc.name {
			t.Errorf("%d.String() = %q, want %q", tc.m, got, tc.name)
		}
		if got, ok := ParseMetric(tc.name); !ok || got != tc.m {
			t.Errorf("ParseMetric(%q) = %v, %v", tc.name, got, ok)
		}
	}
	if len(metricNames) != 5 {
		t.Errorf("%d metric names, table covers 5", len(metricNames))
	}
	for _, name := range []string{"compute-aware", "hysteresis", "bogus", ""} {
		if m, ok := ParseMetric(name); ok {
			t.Errorf("ParseMetric(%q) = %v, want not ok", name, m)
		}
	}
	if got := Metric(200).String(); got != "unknown" {
		t.Errorf("Metric(200).String() = %q", got)
	}
}

// TestFloatKeyOrdersAsFloats: the bandwidth ranker sorts integer keys, so the
// mapping must preserve every comparison between estimates, zeros included.
func TestFloatKeyOrdersAsFloats(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{math.Inf(-1), -2e7, -1, -math.SmallestNonzeroFloat64, negZero, 0,
		math.SmallestNonzeroFloat64, 0.5, 1, 1e6, 2e7, math.MaxFloat64, math.Inf(1)}
	for _, a := range vals {
		for _, b := range vals {
			ka, kb := floatKey(a), floatKey(b)
			if (a < b) != (ka < kb) || (a == b) != (ka == kb) {
				t.Errorf("floatKey(%g)=%d, floatKey(%g)=%d: order differs from the floats'", a, ka, b, kb)
			}
		}
	}
}
