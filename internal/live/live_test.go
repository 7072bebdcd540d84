package live

import (
	"fmt"
	"testing"
	"time"

	"intsched/internal/wire"
)

// chainSpec builds dev - sA - sB - {e1, sched}: two switches, a device and
// a server on opposite sides, and the scheduler at the far end.
func chainSpec() OverlaySpec {
	return OverlaySpec{
		Scheduler: "sched",
		Switches:  []string{"sA", "sB"},
		Links:     [][2]string{{"sA", "sB"}},
		HostAttach: map[string]string{
			"dev":   "sA",
			"e1":    "sA",
			"e2":    "sB",
			"sched": "sB",
		},
		RateBps:       50_000_000, // fast enough for quick tests
		ProbeInterval: 20 * time.Millisecond,
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestOverlayProbesReachCollector(t *testing.T) {
	o, err := StartOverlay(chainSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	waitFor(t, 5*time.Second, func() bool {
		return o.Daemon.Collector().Stats().ProbesReceived >= 6
	}, "probes at the collector")
}

func TestOverlayTopologyLearned(t *testing.T) {
	o, err := StartOverlay(chainSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	waitFor(t, 5*time.Second, func() bool {
		topo := o.Daemon.Collector().Snapshot()
		// All three probing hosts plus the scheduler learned.
		hosts := topo.Hosts()
		if len(hosts) != 4 {
			return false
		}
		// dev's probes traverse sA then sB: path dev->sched learned.
		p, err := topo.Path("dev", "sched")
		if err != nil || len(p) != 4 {
			return false
		}
		return p[1] == "sA" && p[2] == "sB"
	}, "full learned topology")
}

func TestOverlayQueryAPI(t *testing.T) {
	o, err := StartOverlay(chainSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	// Wait for topology before querying.
	waitFor(t, 5*time.Second, func() bool {
		return len(o.Daemon.Collector().Snapshot().Hosts()) == 4
	}, "learned hosts")

	// e1 shares dev's switch: 2 hops; e2 and sched are 3 hops away. On
	// loopback that is a µs-scale difference, which one scheduling hiccup
	// inverts until the delay EWMA recovers over the next few probes.
	var resp *wire.QueryResponse
	waitFor(t, 5*time.Second, func() bool {
		resp, err = Query(o.Daemon.QueryAddr(), &wire.QueryRequest{
			From: "dev", Metric: "delay", Sorted: true,
		}, 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return len(resp.Candidates) > 0 && resp.Candidates[0].Node == "e1"
	}, "e1 ranked nearest by delay on an idle overlay")
	if len(resp.Candidates) != 3 {
		t.Fatalf("candidates %+v", resp.Candidates)
	}
	for _, c := range resp.Candidates {
		if !c.Reachable || c.DelayNs <= 0 {
			t.Fatalf("bad candidate %+v", c)
		}
	}
}

func TestOverlayTransferTimeMetric(t *testing.T) {
	o, err := StartOverlay(chainSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	waitFor(t, 5*time.Second, func() bool {
		return len(o.Daemon.Collector().Snapshot().Hosts()) == 4
	}, "learned hosts")
	resp, err := Query(o.Daemon.QueryAddr(), &wire.QueryRequest{
		From: "dev", Metric: "transfer-time", Sorted: true, DataBytes: 2_000_000,
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 3 {
		t.Fatalf("candidates %+v", resp.Candidates)
	}
	// A 2 MB transfer over ≈20 Mbps should dominate the estimate: ≥0.8 s.
	if resp.Candidates[0].Delay() < 500*time.Millisecond {
		t.Fatalf("transfer-time estimate %v ignores data size", resp.Candidates[0].Delay())
	}
}

func TestOverlayQueryErrors(t *testing.T) {
	o, err := StartOverlay(chainSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := Query(o.Daemon.QueryAddr(), &wire.QueryRequest{From: "dev", Metric: "bogus"}, time.Second); err == nil {
		t.Fatal("unknown metric accepted")
	}
	if _, err := Query(o.Daemon.QueryAddr(), &wire.QueryRequest{From: "dev", Metric: "nearest"}, time.Second); err == nil {
		t.Fatal("unserved metric accepted")
	}
}

func TestOverlayCongestionShiftsRanking(t *testing.T) {
	spec := chainSpec()
	spec.RateBps = 10_000_000 // slow enough to queue under a blast
	o, err := StartOverlay(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	waitFor(t, 5*time.Second, func() bool {
		return len(o.Daemon.Collector().Snapshot().Hosts()) == 4
	}, "learned hosts")

	// Congest sA's egress port toward e1 with a datagram blast, then
	// verify the bandwidth ranking prefers e2 (remote but clean) over e1
	// (local but congested) — the paper's headline behaviour, live.
	src, err := NewTrafficSource("dev", o.Switches["sA"].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if err := src.Blast("e1", 80, 1200); err != nil {
			t.Fatal(err)
		}
		time.Sleep(30 * time.Millisecond)
		resp, err := Query(o.Daemon.QueryAddr(), &wire.QueryRequest{
			From: "dev", Metric: "bandwidth", Sorted: true,
		}, time.Second)
		if err != nil {
			continue
		}
		if len(resp.Candidates) > 0 && resp.Candidates[0].Node != "e1" {
			return // congestion detected and ranking shifted
		}
	}
	t.Fatal("bandwidth ranking never shifted away from the congested server")
}

// TestSoftSwitchCountersReadWhileForwarding reads Counters the way
// cmd/intswitch's stats ticker does, while the receive goroutine forwards
// and tail-drops a blast; under -race this fails on unsynchronised counters.
func TestSoftSwitchCountersReadWhileForwarding(t *testing.T) {
	spec := chainSpec()
	spec.RateBps = 10_000_000 // slow enough to overflow a port queue
	o, err := StartOverlay(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	src, err := NewTrafficSource("dev", o.Switches["sA"].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	waitFor(t, 5*time.Second, func() bool {
		if err := src.Blast("e1", 80, 1200); err != nil {
			t.Fatal(err)
		}
		forwarded, drops := o.Switches["sA"].Counters()
		return forwarded > 0 && drops > 0
	}, "sA forwarding and tail-dropping")
}

func TestSoftSwitchConfigValidation(t *testing.T) {
	sw, err := NewSoftSwitch("s1", "127.0.0.1:0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if sw.ID() != "s1" || sw.Addr() == "" {
		t.Fatal("accessors")
	}
	if _, err := sw.AddPort("x", "not-an-addr"); err == nil {
		t.Error("bad port addr accepted")
	}
	idx, err := sw.AddPort("n1", "127.0.0.1:9")
	if err != nil || idx != 0 {
		t.Fatalf("AddPort: %d %v", idx, err)
	}
	if err := sw.SetRoute("n1", 5); err == nil {
		t.Error("route via missing port accepted")
	}
	if err := sw.SetRoute("n1", 0); err != nil {
		t.Error(err)
	}
	sw.Start()
	if _, err := sw.AddPort("late", "127.0.0.1:9"); err == nil {
		t.Error("AddPort after Start accepted")
	}
}

func TestOverlaySpecValidation(t *testing.T) {
	if _, err := StartOverlay(OverlaySpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := StartOverlay(OverlaySpec{Scheduler: "x", HostAttach: map[string]string{}}); err == nil {
		t.Error("unattached scheduler accepted")
	}
	bad := chainSpec()
	bad.HostAttach["ghost"] = "sZ"
	if _, err := StartOverlay(bad); err == nil {
		t.Error("attachment to unknown switch accepted")
	}
	bad2 := chainSpec()
	bad2.Links = append(bad2.Links, [2]string{"sA", "sZ"})
	if _, err := StartOverlay(bad2); err == nil {
		t.Error("link to unknown switch accepted")
	}
}

func TestOverlayPing(t *testing.T) {
	o, err := StartOverlay(chainSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	rtt, err := o.Agents["dev"].Ping("e2", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Fatalf("rtt %v implausible", rtt)
	}
	// Ping to a nonexistent host times out cleanly.
	if _, err := o.Agents["dev"].Ping("ghost", 300*time.Millisecond); err == nil {
		t.Fatal("ping to ghost succeeded")
	}
}

func TestDaemonCloseIdempotent(t *testing.T) {
	d, err := NewCollectorDaemon("sched", DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	d.Close()
}

// TestOverlayConcurrentQueriesUnderChurn issues parallel TCP queries while
// the overlay's probe fleet keeps mutating the collector at a 20 ms cadence
// — the live deployment of the epoch-versioned snapshot + rank cache read
// path, exercised under go test -race.
func TestOverlayConcurrentQueriesUnderChurn(t *testing.T) {
	o, err := StartOverlay(chainSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	waitFor(t, 5*time.Second, func() bool {
		return len(o.Daemon.Collector().Snapshot().Hosts()) == 4
	}, "learned hosts")

	const clients, perClient = 8, 20
	addr := o.Daemon.QueryAddr()
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			metrics := []string{"delay", "bandwidth"}
			for i := 0; i < perClient; i++ {
				resp, err := Query(addr, &wire.QueryRequest{
					From: "dev", Metric: metrics[(g+i)%2], Sorted: true,
				}, 3*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Candidates) != 3 {
					errs <- fmt.Errorf("query %d/%d: candidates %+v", g, i, resp.Candidates)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	startEpoch := o.Daemon.Collector().Epoch()
	waitFor(t, 5*time.Second, func() bool {
		return o.Daemon.Collector().Epoch() > startEpoch
	}, "probe churn advancing the epoch")
	// 160 queries against probes arriving every 20 ms: the cache must have
	// served a meaningful share.
	st := o.Daemon.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("rank cache never hit under churn: %+v", st)
	}
}
