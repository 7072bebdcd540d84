package live

import (
	"fmt"
	"testing"

	"intsched/internal/experiment"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
	"intsched/internal/wire"
)

// TestSteadyFeedSharesStructure feeds the daemon three rounds of a small
// Clos fabric's probes with a query behind every probe. Once the first round
// has taught it the fabric, every query meets a new epoch and publishes a
// snapshot, and none of them rebuilds the structure: the exported counters
// must show publishes climbing and rebuilds flat.
func TestSteadyFeedSharesStructure(t *testing.T) {
	spec, err := experiment.ClosSpec(experiment.ClosConfig{Pods: 2, Cores: 2, AggsPerPod: 2, TorsPerPod: 2, HostsPerTor: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	fabric, err := spec.Build(simtime.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	trace, err := experiment.TraceProbes(fabric, rounds)
	if err != nil {
		t.Fatal(err)
	}
	perRound := len(fabric.Hosts) - 1
	if len(trace) != rounds*perRound {
		t.Fatalf("traced %d probes, want %d rounds of %d", len(trace), rounds, perRound)
	}

	d, err := NewCollectorDaemon(string(fabric.Scheduler), DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	counter := func(name string) float64 {
		for _, m := range d.Metrics().Snapshot() {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("metric %s is not exported", name)
		return 0
	}
	const publishes, rebuilds = "intsched_collector_snapshot_publishes_total", "intsched_collector_structure_rebuilds_total"
	feed := func(probes []experiment.TracedProbe) {
		for _, tp := range probes {
			p, err := telemetry.UnmarshalProbe(tp.Wire)
			if err != nil {
				t.Fatal(err)
			}
			d.Collector().HandleProbe(p)
			if resp := d.Answer(&wire.QueryRequest{From: p.Origin, Metric: "delay", Sorted: true}); resp.Error != "" || len(resp.Candidates) == 0 {
				t.Fatalf("query from %s: %+v", p.Origin, resp)
			}
		}
	}
	feed(trace[:perRound])
	if counter(rebuilds) == 0 {
		t.Fatal("learning the fabric rebuilt no structure")
	}
	// The scrapes themselves read the snapshot, but between probes: no new
	// epoch, nothing published.
	p0, r0 := counter(publishes), counter(rebuilds)
	feed(trace[perRound:])
	if got := counter(publishes) - p0; got != float64((rounds-1)*perRound) {
		t.Errorf("%v snapshots published for %d probes each followed by a query", got, (rounds-1)*perRound)
	}
	if got := counter(rebuilds) - r0; got != 0 {
		t.Errorf("%v structure rebuilds on a steady feed", got)
	}
}

// TestRerouteTrackingIgnoresUnknownRequesters: requester names come off an
// unauthenticated socket and unknown ones are still answered, so reroute
// tracking keeps an entry only for hosts of the snapshot.
func TestRerouteTrackingIgnoresUnknownRequesters(t *testing.T) {
	d, err := NewCollectorDaemon("sched", DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, p := range starRound(1, 10, 0, 0) {
		d.Collector().HandleProbe(p)
	}
	metrics := []string{"delay", "bandwidth"}
	for i := 0; i < 10_000; i++ {
		req := &wire.QueryRequest{From: fmt.Sprintf("forged-%d", i), Metric: metrics[i%2], Sorted: true}
		if resp := d.Answer(req); resp.Error != "" || len(resp.Candidates) == 0 {
			t.Fatalf("forged requester %d: %+v", i, resp)
		}
	}
	hosts := d.Collector().Snapshot().Hosts()
	for _, h := range hosts {
		for _, m := range metrics {
			d.Answer(&wire.QueryRequest{From: h, Metric: m, Sorted: true})
		}
	}
	// Option two answers in ID order: its first entry is no choice to track.
	d.Answer(&wire.QueryRequest{From: hosts[0], Metric: "transfer-time"})
	d.rerouteMu.Lock()
	tracked := len(d.lastTop)
	d.rerouteMu.Unlock()
	if want := len(hosts) * len(metrics); tracked != want {
		t.Fatalf("%d requesters tracked after 10000 forged names, want the %d hosts x %d metrics = %d",
			tracked, len(hosts), len(metrics), want)
	}
}
