package core

import (
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/dataplane"
	"intsched/internal/netsim"
	"intsched/internal/probe"
	"intsched/internal/simtime"
	"intsched/internal/transport"
)

// serviceFixture wires a star of hosts around one switch s1 with INT,
// probing, a collector, and the scheduler service on sched.
type serviceFixture struct {
	engine *simtime.Engine
	nw     *netsim.Network
	domain *transport.Domain
	coll   *collector.Collector
	svc    *Service
}

// newServiceFixture is the 3-host star dev, e1, sched with equal links.
func newServiceFixture(t *testing.T) *serviceFixture {
	t.Helper()
	return newStarFixture(t, []netsim.NodeID{"dev", "e1", "sched"}, []time.Duration{1, 1, 1})
}

// newStarFixture connects each host to s1 over a link of its delay in ms
// and probes from every host but sched.
func newStarFixture(t *testing.T, hosts []netsim.NodeID, delaysMs []time.Duration) *serviceFixture {
	t.Helper()
	engine := simtime.NewEngine()
	nw := netsim.New(engine)
	nw.AddSwitch("s1")
	var fleet []netsim.NodeID
	for i, h := range hosts {
		nw.AddHost(h)
		cfg := netsim.LinkConfig{RateBps: 100_000_000, Delay: delaysMs[i] * time.Millisecond}
		if _, err := nw.Connect(h, "s1", cfg); err != nil {
			t.Fatal(err)
		}
		if h != "sched" {
			fleet = append(fleet, h)
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	dataplane.AttachINT(nw, dataplane.INTConfig{})
	domain := transport.NewDomain(nw).InstallAll()
	coll := collector.New("sched", engine.Now, collector.Config{QueueWindow: time.Second})
	coll.Bind(domain.Stack("sched"))
	svc := NewService(domain.Stack("sched"), coll, ServiceConfig{})
	svc.Register(&DelayRanker{})
	svc.Register(&BandwidthRanker{})
	probe.NewFleet(nw, fleet, "sched", 100*time.Millisecond)
	// Warm the collector.
	engine.Run(500 * time.Millisecond)
	return &serviceFixture{engine: engine, nw: nw, domain: domain, coll: coll, svc: svc}
}

func TestQueryRoundTripOverNetwork(t *testing.T) {
	f := newServiceFixture(t)
	client := NewClient(f.domain.Stack("dev"), "sched")
	var resp *QueryResponse
	client.QuerySized(MetricDelay, 0, 0, func(r *QueryResponse) { resp = r })
	f.engine.Run(f.engine.Now() + time.Second)
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Metric != MetricDelay {
		t.Fatalf("metric %v", resp.Metric)
	}
	// Candidates: every known host except the requester (e1 and sched).
	if len(resp.Candidates) != 2 {
		t.Fatalf("candidates %v", resp.Candidates)
	}
	for _, c := range resp.Candidates {
		if c.Node == "dev" {
			t.Fatal("requester offered as its own server")
		}
		if !c.Reachable || c.Delay <= 0 {
			t.Fatalf("bad candidate %+v", c)
		}
	}
	if f.svc.QueriesServed != 1 {
		t.Fatalf("QueriesServed=%d", f.svc.QueriesServed)
	}
}

func TestQueryCountLimit(t *testing.T) {
	f := newServiceFixture(t)
	got := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Count: 1, Sorted: true})
	if len(got) != 1 {
		t.Fatalf("count limit ignored: %v", got)
	}
}

func TestQueryUnknownMetricYieldsNil(t *testing.T) {
	f := newServiceFixture(t)
	if got := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricNearest}); got != nil {
		t.Fatalf("unregistered metric returned %v", got)
	}
}

func TestQueryOptionTwoUnsorted(t *testing.T) {
	f := newServiceFixture(t)
	got := f.svc.RankFor(&QueryRequest{From: "dev", Metric: MetricDelay, Sorted: false})
	// Paper option two: full list ordered by ID, estimates included.
	for i := 1; i < len(got); i++ {
		if got[i-1].Node > got[i].Node {
			t.Fatalf("unsorted option not ID-ordered: %v", got)
		}
	}
	for _, c := range got {
		if c.Delay <= 0 {
			t.Fatalf("estimates missing in option two: %+v", c)
		}
	}
}

func TestServiceDemuxChaining(t *testing.T) {
	f := newServiceFixture(t)
	// The scheduler host also runs a client (it submits tasks too). The
	// service must forward non-service messages to the prior handler.
	schedClient := NewClient(f.domain.Stack("dev"), "sched")
	type custom struct{ V int }
	var got any
	schedClient.Demux = func(_ netsim.NodeID, payload any) { got = payload }
	f.domain.Stack("e1").SendControl("dev", 64, &custom{V: 9})
	f.engine.Run(f.engine.Now() + time.Second)
	if c, ok := got.(*custom); !ok || c.V != 9 {
		t.Fatalf("demux got %v", got)
	}
}

func TestCandidateStringFormat(t *testing.T) {
	c := Candidate{Node: "e1", Delay: 30 * time.Millisecond, BandwidthBps: 20e6, Hops: 3}
	s := c.String()
	if s == "" || s[0:2] != "e1" {
		t.Fatalf("string %q", s)
	}
}
