package edge

import (
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/dataplane"
	"intsched/internal/netsim"
	"intsched/internal/probe"
	"intsched/internal/simtime"
	"intsched/internal/transport"
	"intsched/internal/workload"
)

// fixture wires hosts {dev, e1, e2, sched} through one switch with INT,
// probing, collector, service, and edge nodes on every host.
type fixture struct {
	engine *simtime.Engine
	nw     *netsim.Network
	domain *transport.Domain
	nodes  map[netsim.NodeID]*Node
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	return newFixtureDelays(t, nil)
}

// newFixtureDelays is newFixture with the access-link delay of the named
// hosts overridden (1 ms otherwise).
func newFixtureDelays(t *testing.T, delays map[netsim.NodeID]time.Duration) *fixture {
	t.Helper()
	engine := simtime.NewEngine()
	nw := netsim.New(engine)
	nw.AddSwitch("s1")
	hosts := []netsim.NodeID{"dev", "e1", "e2", "sched"}
	for _, h := range hosts {
		nw.AddHost(h)
		cfg := netsim.LinkConfig{RateBps: 1_000_000_000, ReverseRateBps: 20_000_000, Delay: time.Millisecond}
		if d, ok := delays[h]; ok {
			cfg.Delay = d
		}
		if _, err := nw.Connect(h, "s1", cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	dataplane.AttachINT(nw, dataplane.INTConfig{})
	domain := transport.NewDomain(nw).InstallAll()
	coll := collector.New("sched", engine.Now, collector.Config{QueueWindow: time.Second})
	coll.Bind(domain.Stack("sched"))

	nodes := make(map[netsim.NodeID]*Node)
	for _, h := range hosts {
		nodes[h] = NewNode(domain.Stack(h), "sched")
	}
	svc := core.NewService(domain.Stack("sched"), coll, core.ServiceConfig{})
	svc.Register(&core.DelayRanker{})
	svc.Register(&core.BandwidthRanker{})
	probe.NewFleet(nw, hosts, "sched", 100*time.Millisecond)
	engine.Run(500 * time.Millisecond) // warm the collector
	return &fixture{engine: engine, nw: nw, domain: domain, nodes: nodes}
}

func job(id uint64, device netsim.NodeID, kind workload.Kind, tasks int) workload.Job {
	j := workload.Job{ID: id, Device: device, Kind: kind}
	for i := 0; i < tasks; i++ {
		j.Tasks = append(j.Tasks, workload.Task{
			ID:        id*10 + uint64(i),
			JobID:     id,
			Class:     workload.Small,
			DataBytes: 200_000,
			ExecTime:  300 * time.Millisecond,
		})
	}
	return j
}

func TestServerlessLifecycle(t *testing.T) {
	f := newFixture(t)
	dev := f.nodes["dev"]
	done := false
	dev.SubmitJob(job(1, "dev", workload.Serverless, 1), core.MetricDelay, func() { done = true })
	f.engine.Run(f.engine.Now() + 30*time.Second)
	if !done {
		t.Fatal("job completion callback never fired")
	}
	if len(dev.Results) != 1 {
		t.Fatalf("results %d", len(dev.Results))
	}
	r := dev.Results[0]
	if r.Server == "dev" || r.Server == "" {
		t.Fatalf("bad server %q", r.Server)
	}
	if r.CompletionTime() < r.ExecTime {
		t.Fatalf("completion %v < exec %v", r.CompletionTime(), r.ExecTime)
	}
	if r.TransferTime() <= 0 || r.TransferDoneAt < r.RankedAt || r.RankedAt < r.SubmitAt {
		t.Fatalf("timeline broken: %+v", r)
	}
	// The chosen server executed it.
	if f.nodes[r.Server].Executed != 1 {
		t.Fatalf("server %s executed %d", r.Server, f.nodes[r.Server].Executed)
	}
}

func TestDistributedSpreadsOverTopThree(t *testing.T) {
	f := newFixture(t)
	dev := f.nodes["dev"]
	dev.SubmitJob(job(2, "dev", workload.Distributed, 3), core.MetricDelay, nil)
	f.engine.Run(f.engine.Now() + 30*time.Second)
	if len(dev.Results) != 3 {
		t.Fatalf("results %d", len(dev.Results))
	}
	servers := map[netsim.NodeID]bool{}
	for _, r := range dev.Results {
		servers[r.Server] = true
	}
	// 3 candidates exist (e1, e2, sched): all three distinct.
	if len(servers) != 3 {
		t.Fatalf("tasks not spread: %v", servers)
	}
}

func TestOnResultCallback(t *testing.T) {
	f := newFixture(t)
	dev := f.nodes["dev"]
	var got []TaskResult
	dev.OnResult = func(r TaskResult) { got = append(got, r) }
	dev.SubmitJob(job(3, "dev", workload.Distributed, 3), core.MetricBandwidth, nil)
	f.engine.Run(f.engine.Now() + 30*time.Second)
	if len(got) != 3 {
		t.Fatalf("OnResult fired %d times", len(got))
	}
}

func TestServerSlotsQueueTasks(t *testing.T) {
	// Constrain e1 to one slot and put every other server far enough away
	// that delay ranking sends both tasks to it.
	far := 50 * time.Millisecond
	f := newFixtureDelays(t, map[netsim.NodeID]time.Duration{"e2": far, "sched": far})
	f.nodes["e1"].Slots = 1
	dev := f.nodes["dev"]
	dev.SubmitJob(job(4, "dev", workload.Serverless, 1), core.MetricDelay, nil)
	dev.SubmitJob(job(5, "dev", workload.Serverless, 1), core.MetricDelay, nil)
	f.engine.Run(f.engine.Now() + 60*time.Second)
	if len(dev.Results) != 2 {
		t.Fatalf("results %d", len(dev.Results))
	}
	if f.nodes["e1"].Executed != 2 {
		t.Fatalf("e1 executed %d", f.nodes["e1"].Executed)
	}
	if f.nodes["e1"].Backlog() != 0 {
		t.Fatalf("backlog %v after drain", f.nodes["e1"].Backlog())
	}
	// With one slot the executions serialized: the later completion is at
	// least one exec time after the earlier.
	d0, d1 := dev.Results[0], dev.Results[1]
	gap := d1.CompletedAt - d0.CompletedAt
	if gap < 0 {
		gap = -gap
	}
	if gap < 250*time.Millisecond {
		t.Fatalf("executions overlapped on 1 slot: gap %v", gap)
	}
}

func TestCustomSelectorOptionTwo(t *testing.T) {
	f := newFixture(t)
	dev := f.nodes["dev"]
	var sawEstimates bool
	// Custom policy: always pick "e2" regardless of ranking.
	dev.Selector = func(cands []core.Candidate, task workload.Task) netsim.NodeID {
		// Option two must deliver estimates for all candidates, ID-sorted.
		for i := 1; i < len(cands); i++ {
			if cands[i-1].Node > cands[i].Node {
				t.Errorf("candidates not ID-ordered: %v", cands)
			}
		}
		for _, c := range cands {
			if c.Reachable && c.Delay > 0 {
				sawEstimates = true
			}
		}
		return "e2"
	}
	dev.SubmitJob(job(9, "dev", workload.Serverless, 1), core.MetricDelay, nil)
	f.engine.Run(f.engine.Now() + 30*time.Second)
	if len(dev.Results) != 1 {
		t.Fatalf("results %d", len(dev.Results))
	}
	if dev.Results[0].Server != "e2" {
		t.Fatalf("selector ignored: server %s", dev.Results[0].Server)
	}
	if !sawEstimates {
		t.Fatal("option-two response carried no estimates")
	}
}

func TestResultAccessors(t *testing.T) {
	r := TaskResult{
		SubmitAt:       time.Second,
		RankedAt:       1100 * time.Millisecond,
		TransferDoneAt: 2 * time.Second,
		CompletedAt:    3 * time.Second,
	}
	if r.TransferTime() != 900*time.Millisecond {
		t.Fatalf("transfer %v", r.TransferTime())
	}
	if r.CompletionTime() != 2*time.Second {
		t.Fatalf("completion %v", r.CompletionTime())
	}
}

func TestUnknownTaskCompletionIgnored(t *testing.T) {
	f := newFixture(t)
	// A stray taskDone for an unknown task must not panic or record.
	f.domain.Stack("e1").SendControl("dev", 64, &taskDone{TaskID: 999})
	f.engine.Run(f.engine.Now() + time.Second)
	if len(f.nodes["dev"].Results) != 0 {
		t.Fatal("phantom result recorded")
	}
}
