package main

import (
	"fmt"
	"time"

	"intsched/internal/dataplane"
	"intsched/internal/experiment"
	"intsched/internal/netsim"
	"intsched/internal/probe"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
)

// probeInterval is the paper's probing cadence; every trace and feed
// schedule in the benchmark runs at it.
const probeInterval = probe.DefaultInterval

// fabricRateBps is the link rate of the generated fabrics. At the paper's
// 20 Mb/s a star fleet of hundreds of 1500-byte probes overruns the
// scheduler's access link and most probes are dropped (see README, "sizing
// facts"); at 1 Gb/s every probe is delivered.
const fabricRateBps = 1_000_000_000

// probeTrace is the telemetry a scheduler host receives from a simulated
// fabric: encoded probe payloads in arrival order, grouped into rounds of
// one probe per origin. Storage is pointer-free (one byte arena plus offset
// and time columns) so holding a trace adds no GC scan work to a timed
// window.
type probeTrace struct {
	sched   string
	origins []string // every non-scheduler host, sorted
	rounds  int

	arena []byte
	off   []uint32 // probe i is arena[off[i]:off[i+1]]
	at    []int64  // simulated arrival time of probe i, ns

	records uint64 // INT records across captured probes

	// recording state
	start, end time.Duration
	engine     *simtime.Engine
	err        error
}

// probes is the number of captured probes.
func (t *probeTrace) probes() int { return len(t.at) }

// deliveredShare is the share of the probes sent during the captured rounds
// that reached the scheduler. checkCoverage only passes a trace at 1.
func (t *probeTrace) deliveredShare() float64 {
	return float64(t.probes()) / float64(t.rounds*t.perRound())
}

// perRound is the number of probes in every round.
func (t *probeTrace) perRound() int { return len(t.origins) }

// payload returns the encoded payload of probe i. The slice aliases the
// arena: callers read it, they do not keep or grow it.
func (t *probeTrace) payload(i int) []byte { return t.arena[t.off[i]:t.off[i+1]] }

// round returns the probe index range [lo, hi) of round r.
func (t *probeTrace) round(r int) (lo, hi int) {
	return r * t.perRound(), (r + 1) * t.perRound()
}

// capture is the scheduler stack's probe handler while a trace is recorded.
func (t *probeTrace) capture(pkt *netsim.Packet) {
	now := t.engine.Now()
	if pkt.Probe == nil || now < t.start || now >= t.end || t.err != nil {
		return
	}
	arena, err := telemetry.AppendProbe(t.arena, pkt.Probe)
	t.arena = arena
	if err != nil {
		t.err = err
		return
	}
	t.off = append(t.off, uint32(len(t.arena)))
	t.at = append(t.at, int64(now))
	t.records += uint64(len(pkt.Probe.Stack.Records))
}

// generateTrace simulates the fabric described by spec (its link rate set to
// fabricRateBps) with one prober per non-scheduler host, phases staggered across the probing interval, and
// records what reaches the scheduler during the given number of rounds. It
// fails unless every round holds exactly one probe of every origin.
func generateTrace(spec *experiment.TopoSpec, rounds int) (*probeTrace, error) {
	spec.RateBps = fabricRateBps
	engine := simtime.NewEngine()
	topo, err := spec.Build(engine)
	if err != nil {
		return nil, err
	}
	dataplane.AttachINT(topo.Net, dataplane.INTConfig{})
	domain := transport.NewDomain(topo.Net).InstallAll()

	t := &probeTrace{sched: string(topo.Scheduler), rounds: rounds, engine: engine}
	for _, h := range topo.Hosts {
		if h != topo.Scheduler {
			t.origins = append(t.origins, string(h))
		}
	}
	n := len(t.origins)
	// The first probe of prober i leaves at i·interval/n + interval; two
	// intervals in, every stream is in steady state and arrival windows of
	// one interval hold each origin exactly once.
	t.start = 2 * probeInterval
	t.end = t.start + time.Duration(rounds)*probeInterval
	t.arena = make([]byte, 0, rounds*n*1100)
	t.off = make([]uint32, 1, rounds*n+1)
	t.at = make([]int64, 0, rounds*n)
	domain.Stack(topo.Scheduler).ProbeHandler = t.capture

	for i, h := range t.origins {
		origin := netsim.NodeID(h)
		engine.At(time.Duration(i)*probeInterval/time.Duration(n), func() {
			probe.NewProber(topo.Net, origin, topo.Scheduler, probeInterval)
		})
	}
	engine.Run(t.end)
	t.engine = nil
	if t.err != nil {
		return nil, fmt.Errorf("trace %s: encode: %w", spec.Name, t.err)
	}
	return t, t.checkCoverage(spec.Name)
}

// checkCoverage verifies that every round holds exactly one probe from
// every origin, by decoding the trace it just recorded.
func (t *probeTrace) checkCoverage(name string) error {
	n := t.perRound()
	if t.probes() != t.rounds*n {
		return fmt.Errorf("trace %s: captured %d probes, want %d rounds x %d origins = %d",
			name, t.probes(), t.rounds, n, t.rounds*n)
	}
	index := make(map[string]int, n)
	for i, o := range t.origins {
		index[o] = i
	}
	seen := make([]int, n)
	var p telemetry.ProbePayload
	for r := 0; r < t.rounds; r++ {
		lo, hi := t.round(r)
		for i := lo; i < hi; i++ {
			if err := telemetry.UnmarshalProbeInto(&p, t.payload(i)); err != nil {
				return fmt.Errorf("trace %s: probe %d: %w", name, i, err)
			}
			j, ok := index[p.Origin]
			if !ok {
				return fmt.Errorf("trace %s: round %d: unknown origin %q", name, r, p.Origin)
			}
			if seen[j] != r {
				return fmt.Errorf("trace %s: round %d: origin %s seen %d times before, want %d",
					name, r, p.Origin, seen[j], r)
			}
			seen[j]++
		}
	}
	return nil
}
