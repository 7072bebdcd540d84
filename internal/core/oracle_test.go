package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/telemetry"
)

// The ranking oracle: Algorithm 1 and the bottleneck estimate computed by
// name over a snapshot's public accessors — Path for the hop sequence,
// LinkDelay / QueueMax / LinkRate per hop, plain loops and a stable sort in
// the documented order — and compared field for field with ComputeRanking
// after every step of a randomized probe history. The reference shares no
// scratch, no index-space walk and no sort with the rankers, so a slot
// resolved against the wrong structure, a queue term charged to a host hop
// or a tie broken differently shows as a mismatch here.

// refEstimate is the by-name estimate over one hop sequence.
func refEstimate(topo *collector.Topology, path []string, k time.Duration, cal *Calibration) (delay time.Duration, bottleneck float64) {
	bottleneck = -1
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if d, ok := topo.LinkDelay(a, b); ok {
			delay += d
		} else {
			delay += FallbackLinkDelay
		}
		util := 0.0
		// Hosts have no measured queues: only a switch's egress port
		// contributes Q(h).
		if !topo.IsHost(a) {
			if q, ok := topo.QueueMax(a, b); ok {
				delay += time.Duration(q) * k
				util = cal.Utilization(q)
			}
		}
		if avail := float64(topo.LinkRate(a, b)) * (1 - util); bottleneck < 0 || avail < bottleneck {
			bottleneck = avail
		}
	}
	if bottleneck < 0 {
		bottleneck = 0
	}
	return delay, bottleneck
}

// refRanking ranks every host but from the way the Ranker contract
// documents: reachable candidates first, best estimate first, ties and
// unreachable candidates in node-ID order.
func refRanking(topo *collector.Topology, metric Metric, from netsim.NodeID, dataBytes int64) []Candidate {
	var out []Candidate
	for _, h := range topo.Hosts() {
		if h == string(from) {
			continue
		}
		cand := Candidate{Node: netsim.NodeID(h)}
		if path, err := topo.Path(string(from), h); err == nil {
			cand.Reachable = true
			cand.Hops = len(path) - 1
			delay, bw := refEstimate(topo, path, DefaultK, DefaultCalibration())
			switch metric {
			case MetricDelay:
				cand.Delay = delay
			case MetricBandwidth:
				cand.BandwidthBps = bw
			case MetricTransferTime:
				cand.Delay, cand.BandwidthBps = delay, bw
				if dataBytes > 0 {
					avail := max(bw, 200_000)
					cand.Delay += time.Duration(float64(dataBytes*8) / avail * float64(time.Second))
				}
			}
		}
		out = append(out, cand)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Reachable != b.Reachable {
			return a.Reachable
		}
		if a.Reachable {
			if metric == MetricBandwidth {
				if a.BandwidthBps != b.BandwidthBps {
					return a.BandwidthBps > b.BandwidthBps
				}
			} else if a.Delay != b.Delay {
				return a.Delay < b.Delay
			}
		}
		return a.Node < b.Node
	})
	return out
}

// oracleHistory drives one collector through a seeded probe history over a
// small fabric with conflicting port claims, so that adjacencies are
// overwritten in one direction only, hosts move between switches, streams
// fall silent and edges age out.
type oracleHistory struct {
	rng  *rand.Rand
	now  time.Duration
	coll *collector.Collector
	seqs map[[2]string]uint64

	// Which of the cases the oracle must cover the history produced.
	reverseHops, evictions, rehomed, stranded int
	// firstHop is each host's last seen first neighbor, to notice re-homing.
	firstHop map[string]string
}

var (
	oracleHosts    = []string{"h0", "h1", "h2", "h3", "h4"}
	oracleSwitches = []string{"w0", "w1", "w2", "w3", "w4", "w5"}
)

func newOracleHistory(seed int64) *oracleHistory {
	h := &oracleHistory{
		rng:      rand.New(rand.NewSource(seed)),
		now:      time.Second,
		seqs:     map[[2]string]uint64{},
		firstHop: map[string]string{},
	}
	h.coll = collector.New("sched", func() time.Duration { return h.now },
		collector.Config{QueueWindow: 200 * time.Millisecond}) // adjacency TTL 1 s
	// A host that probes once and never again: once its edges age out it
	// stays a host with no adjacency.
	h.probe("ghost", "", []string{"w5"})
	return h
}

// probe ingests one deterministic probe from origin over the given switches
// with random ports, latencies and queue reports.
func (h *oracleHistory) probe(origin, target string, switches []string) {
	key := [2]string{origin, target}
	h.seqs[key]++
	p := &telemetry.ProbePayload{Origin: origin, Target: target, Seq: h.seqs[key]}
	for _, sw := range switches {
		rec := telemetry.Record{
			Device:      sw,
			IngressPort: h.rng.Intn(4),
			EgressPort:  h.rng.Intn(4),
			LinkLatency: time.Duration(1+h.rng.Intn(9)) * time.Millisecond,
			EgressTS:    h.now - time.Duration(1+h.rng.Intn(5))*time.Millisecond,
		}
		for port := 0; port < 4; port++ {
			if h.rng.Intn(3) == 0 {
				rec.Queues = append(rec.Queues, telemetry.PortQueue{Port: port, MaxQueue: h.rng.Intn(40), Packets: 1})
			}
		}
		p.Stack.Append(rec)
	}
	if target != "" {
		p.LastHopLatency = time.Duration(1+h.rng.Intn(5)) * time.Millisecond
	}
	h.coll.HandleProbe(p)
}

// step applies one random mutation: mostly a probe over a random route,
// sometimes a configured link rate, sometimes a silence long enough to age
// abandoned edges out.
func (h *oracleHistory) step() {
	switch r := h.rng.Intn(20); {
	case r == 0:
		a := oracleSwitches[h.rng.Intn(len(oracleSwitches))]
		b := oracleSwitches[h.rng.Intn(len(oracleSwitches))]
		h.coll.SetLinkRate(netsim.NodeID(a), netsim.NodeID(b), int64(1+h.rng.Intn(9))*10_000_000)
	default:
		origin := oracleHosts[h.rng.Intn(len(oracleHosts))]
		target := ""
		if h.rng.Intn(3) == 0 {
			if target = oracleHosts[h.rng.Intn(len(oracleHosts))]; target == origin {
				target = ""
			}
		}
		perm := h.rng.Perm(len(oracleSwitches) - 1) // w5 stays ghost's alone
		route := make([]string, 1+h.rng.Intn(3))
		for i := range route {
			route[i] = oracleSwitches[perm[i]]
		}
		h.probe(origin, target, route)
	}
	if h.rng.Intn(10) == 0 {
		h.now += 700 * time.Millisecond
	} else {
		h.now += time.Duration(20+h.rng.Intn(150)) * time.Millisecond
	}
}

// observe counts which special cases the snapshot exhibits.
func (h *oracleHistory) observe(topo *collector.Topology) {
	h.evictions += len(h.coll.EvictedEdges())
	for _, host := range topo.Hosts() {
		nbrs := topo.Neighbors(host)
		if len(nbrs) == 0 {
			h.stranded++
			continue
		}
		if prev, ok := h.firstHop[host]; ok && prev != nbrs[0] {
			h.rehomed++
		}
		h.firstHop[host] = nbrs[0]
	}
	for _, a := range topo.Hosts() {
		for _, b := range topo.Hosts() {
			if p, err := topo.Path(a, b); err == nil {
				for i := 0; i+1 < len(p); i++ {
					if !slices.Contains(topo.Neighbors(p[i]), p[i+1]) {
						h.reverseHops++ // hop known only as (p[i+1], p[i])
					}
				}
			}
		}
	}
}

func TestRankersMatchByNameOracle(t *testing.T) {
	rankers := []Ranker{&DelayRanker{}, &BandwidthRanker{}, &TransferTimeRanker{}}
	var reverseHops, evictions, rehomed, stranded int
	for seed := int64(1); seed <= 6; seed++ {
		h := newOracleHistory(seed)
		for step := 0; step < 150; step++ {
			h.step()
			topo := h.coll.Snapshot()
			h.observe(topo)
			requesters := append(topo.Hosts(), "nobody")
			for _, r := range rankers {
				dataBytes := int64(0)
				if r.Metric() == MetricTransferTime {
					dataBytes = int64(h.rng.Intn(3)) * 2_000_000
				}
				for _, from := range requesters {
					got := ComputeRanking(topo, r, netsim.NodeID(from), dataBytes)
					want := refRanking(topo, r.Metric(), netsim.NodeID(from), dataBytes)
					if err := sameRanking(got, want); err != nil {
						t.Fatalf("seed %d step %d: %v from %s (%d B): %v\n got  %v\n want %v",
							seed, step, r.Metric(), from, dataBytes, err, got, want)
					}
				}
			}
		}
		reverseHops += h.reverseHops
		evictions += h.evictions
		rehomed += h.rehomed
		stranded += h.stranded
	}
	// The comparison means little unless the histories reached the cases
	// the rankers treat specially.
	t.Logf("covered: %d reverse-slot hops, %d evicted edges, %d re-homed hosts, %d hosts without adjacency",
		reverseHops, evictions, rehomed, stranded)
	if reverseHops == 0 || evictions == 0 || rehomed == 0 || stranded == 0 {
		t.Fatalf("history too tame: %d reverse-slot hops, %d evicted edges, %d re-homed hosts, %d hosts without adjacency",
			reverseHops, evictions, rehomed, stranded)
	}
}

// sameRanking compares two rankings field for field, position by position.
func sameRanking(got, want []Candidate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("position %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}
