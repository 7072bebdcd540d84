package core

import (
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
)

// learnedTopo builds a collector-learned star: device "dev" on s1; servers
// e1 via s1-s2 (queue q12 on that direction), e2 via s1-s3 (queue q13).
// All link latencies 10ms.
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

// rankNamed ranks the named candidates for from with r on topo — the one
// Rank method driven by name, through the query engine's custom-candidate
// path (names that are not hosts of topo come back unreachable).
func rankNamed(r Ranker, topo *collector.Topology, from netsim.NodeID, dataBytes int64, names ...netsim.NodeID) []Candidate {
	var e Engine
	e.Register(r)
	e.candidates = func(netsim.NodeID) []netsim.NodeID { return names }
	ranked, _ := e.Answer(topo, &QueryRequest{From: from, Metric: r.Metric(), Sorted: true, DataBytes: dataBytes})
	return ranked
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

func TestDelayRankerJitterPenalty(t *testing.T) {
	// Both branches clean; jitter on e1's branch should tip the ranking
	// toward e2 when JitterWeight is set, and leave a tie (ID order)
	// without it.
	now := time.Second
	clock := func() time.Duration { return now }
	c := collector.New("sched", clock, collector.Config{QueueWindow: time.Second, DefaultLinkRateBps: 20_000_000})
	push := func(origin string, seq uint64, lat time.Duration, dev string, in int) {
		p := &telemetry.ProbePayload{Origin: origin, Seq: seq}
		p.Stack.Append(telemetry.Record{Device: dev, IngressPort: 0, EgressPort: 1, LinkLatency: lat, EgressTS: now})
		p.Stack.Append(telemetry.Record{Device: "s1", IngressPort: in, EgressPort: 3, LinkLatency: 10 * time.Millisecond, EgressTS: now})
		c.HandleProbe(p)
	}
	for i := 0; i < 8; i++ {
		// e1's first link jitters between 5 and 15 ms (mean 10); e2's is
		// a steady 10 ms.
		lat := 5 * time.Millisecond
		if i%2 == 1 {
			lat = 15 * time.Millisecond
		}
		push("e1", uint64(i+1), lat, "s2", 1)
		push("e2", uint64(i+1), 10*time.Millisecond, "s3", 2)
	}
	p := &telemetry.ProbePayload{Origin: "dev", Seq: 1}
	p.Stack.Append(telemetry.Record{Device: "s1", IngressPort: 0, EgressPort: 3, LinkLatency: 10 * time.Millisecond, EgressTS: now})
	c.HandleProbe(p)
	topo := c.Snapshot()

	plainE1 := rankNamed(&DelayRanker{}, topo, "dev", 0, "e1")[0]
	jr := &DelayRanker{JitterWeight: 2}
	jitterE1 := rankNamed(jr, topo, "dev", 0, "e1")[0]
	if !plainE1.Reachable || !jitterE1.Reachable {
		t.Fatalf("e1 unreachable: %+v %+v", plainE1, jitterE1)
	}
	// The jittery branch must pay a penalty of roughly 2 × ~5ms stddev.
	if jitterE1.Delay <= plainE1.Delay+5*time.Millisecond {
		t.Fatalf("jitter penalty too small: %v vs %v", jitterE1.Delay, plainE1.Delay)
	}
	ranked := rankNamed(jr, topo, "dev", 0, "e1", "e2")
	if ranked[0].Node != "e2" {
		t.Fatalf("jitter-aware ranking should prefer the stable path: %v", ranked)
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

func TestComputeAwareRankerAddsBacklog(t *testing.T) {
	topo := learnedTopo(t, 0, 0)
	load := map[netsim.NodeID]time.Duration{"e1": 5 * time.Second, "e2": 0}
	r := &ComputeAwareRanker{
		Network: &DelayRanker{K: 20 * time.Millisecond},
		LoadFn:  func(s netsim.NodeID) time.Duration { return load[s] },
	}
	ranked := rankNamed(r, topo, "dev", 0, "e1", "e2")
	if ranked[0].Node != "e2" {
		t.Fatalf("loaded server ranked first: %v", ranked)
	}
	if ranked[1].Delay < 5*time.Second {
		t.Fatalf("backlog not added: %v", ranked[1].Delay)
	}
}

func TestMetricStringsAndParse(t *testing.T) {
	for _, m := range []Metric{MetricDelay, MetricBandwidth, MetricNearest, MetricRandom, MetricComputeAware} {
		parsed, ok := ParseMetric(m.String())
		if !ok || parsed != m {
			t.Errorf("round trip failed for %v", m)
		}
	}
	if _, ok := ParseMetric("bogus"); ok {
		t.Error("bogus metric parsed")
	}
	if Metric(200).String() != "unknown" {
		t.Error("unknown metric string")
	}
}
