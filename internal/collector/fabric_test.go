package collector_test

import (
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/experiment"
	"intsched/internal/netsim"
	"intsched/internal/probe"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
)

// learnFabric replays one probing round of the fabric spec builds (at 1 Gb/s,
// so every probe is delivered) into a new collector and returns its
// snapshot.
func learnFabric(t *testing.T, spec *experiment.TopoSpec) *collector.Topology {
	t.Helper()
	spec.RateBps = 1_000_000_000
	fabric, err := spec.Build(simtime.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	trace, err := experiment.TraceProbes(fabric, 1)
	if err != nil {
		t.Fatal(err)
	}
	now := trace[0].At
	coll := collector.New(fabric.Scheduler, func() time.Duration { return now }, collector.Config{QueueWindow: 2 * probe.DefaultInterval})
	var p telemetry.ProbePayload
	for _, at := range trace {
		if err := telemetry.UnmarshalProbeInto(&p, at.Wire); err != nil {
			t.Fatal(err)
		}
		now = at.At
		coll.HandleProbe(&p)
	}
	topo := coll.Snapshot()
	if topo.HostCount() != len(fabric.Hosts) {
		t.Fatalf("learned %d of the fabric's %d hosts", topo.HostCount(), len(fabric.Hosts))
	}
	return topo
}

type namedSpec struct {
	name string
	spec *experiment.TopoSpec
}

// generatorFabrics are the Fig 4 network and the Clos and metro generators
// at their default sizes.
func generatorFabrics(t *testing.T) []namedSpec {
	t.Helper()
	clos, err := experiment.ClosSpec(experiment.ClosConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	metro, err := experiment.MetroSpec(experiment.MetroConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return []namedSpec{{"fig4", experiment.Fig4Spec()}, {"clos", clos}, {"metro", metro}}
}

// TestWalksMatchHostTreesOnFabrics holds every walk toward a host on the
// learned generator fabrics equal to the walk over the host's own BFS tree.
func TestWalksMatchHostTreesOnFabrics(t *testing.T) {
	for _, f := range generatorFabrics(t) {
		t.Run(f.name, func(t *testing.T) {
			topo := learnFabric(t, f.spec)
			singles, err := collector.CheckWalksMatchHostTrees(topo)
			if err != nil {
				t.Fatal(err)
			}
			if singles != topo.HostCount() {
				t.Fatalf("%d of %d hosts single-homed, want all", singles, topo.HostCount())
			}
		})
	}
}

// TestOneTreePerAttachmentSwitch: rankings from every host of the Clos and
// metro fabrics, which walk from each host to every other, leave the structure
// holding one tree per switch a host hangs off — not one per host.
func TestOneTreePerAttachmentSwitch(t *testing.T) {
	want := map[string]int{"clos": 128, "metro": 129}
	for _, f := range generatorFabrics(t) {
		if want[f.name] == 0 {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			topo := learnFabric(t, f.spec)
			for _, h := range topo.Hosts() {
				core.ComputeRanking(topo, &core.DelayRanker{}, netsim.NodeID(h), 0)
			}
			trees, roots := collector.StoredTrees(topo)
			if trees != roots || trees != want[f.name] {
				t.Fatalf("structure holds %d trees for %d hosts on %d walk roots, want %d",
					trees, topo.HostCount(), roots, want[f.name])
			}
		})
	}
}
