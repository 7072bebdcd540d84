package experiment

import (
	"time"

	"intsched/internal/collector"
	"intsched/internal/dataplane"
	"intsched/internal/netsim"
	"intsched/internal/probe"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
)

// WarmCollector attaches INT, transport stacks, a collector on the
// topology's scheduler host, and a probing fleet, then runs the simulation
// for the given duration so the collector learns the full network. It
// returns the warmed collector (used by benchmarks and tests that need a
// realistic learned topology without a whole scenario).
func WarmCollector(topo *Topology, dur time.Duration) (*collector.Collector, error) {
	dataplane.AttachINT(topo.Net, dataplane.INTConfig{})
	domain := transport.NewDomain(topo.Net).InstallAll()
	coll := collector.New(topo.Scheduler, topo.Net.Engine().Now, collector.Config{
		QueueWindow: time.Second,
	})
	coll.Bind(domain.Stack(topo.Scheduler))
	pairs, _, err := probe.PlanCoverage(topo.Net.PathBetween, topo.Hosts, topo.Scheduler)
	if err != nil {
		return nil, err
	}
	for _, h := range topo.Hosts {
		if h != topo.Scheduler {
			probe.InstallRelay(domain.Stack(h), topo.Scheduler)
		}
	}
	fleet := probe.NewPlannedFleet(topo.Net, pairs, probe.DefaultInterval)
	topo.Net.Engine().Run(topo.Net.Engine().Now() + dur)
	fleet.Stop()
	return coll, nil
}

// TracedProbe is one probe as the scheduler host received it: its arrival
// time and its wire encoding.
type TracedProbe struct {
	At   time.Duration
	Wire []byte
}

// TraceProbes attaches INT and transport stacks and one prober per
// non-scheduler host, phases staggered across the probing interval, and
// returns what reaches the scheduler during the given number of probing
// intervals once every stream has settled — the feed a collector of this
// fabric sees at the paper's cadence, for benchmarks and tests that replay it.
func TraceProbes(topo *Topology, rounds int) ([]TracedProbe, error) {
	dataplane.AttachINT(topo.Net, dataplane.INTConfig{})
	domain := transport.NewDomain(topo.Net).InstallAll()
	engine := topo.Net.Engine()
	start := 2 * probe.DefaultInterval
	var trace []TracedProbe
	var encodeErr error
	domain.Stack(topo.Scheduler).ProbeHandler = func(pkt *netsim.Packet) {
		if pkt.Probe == nil || engine.Now() < start || encodeErr != nil {
			return
		}
		wire, err := telemetry.MarshalProbe(pkt.Probe)
		if err != nil {
			encodeErr = err
			return
		}
		trace = append(trace, TracedProbe{At: engine.Now(), Wire: wire})
	}
	i := 0
	for _, h := range topo.Hosts {
		if h == topo.Scheduler {
			continue
		}
		engine.At(time.Duration(i)*probe.DefaultInterval/time.Duration(len(topo.Hosts)-1), func() {
			probe.NewProber(topo.Net, h, topo.Scheduler, probe.DefaultInterval)
		})
		i++
	}
	engine.Run(start + time.Duration(rounds)*probe.DefaultInterval)
	return trace, encodeErr
}
