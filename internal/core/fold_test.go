package core

import (
	"sort"
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/telemetry"
)

// The per-host reference for the path rankers: for every candidate, the
// walk to the candidate itself (SlotsInto(src, dst)) folded slot by slot,
// and the documented order over the results. It shares the walk with the
// rankers but not the grouping, the fold or the sort, so a prefix shared
// wrongly between the hosts of one attachment switch, a queue term charged
// to (or withheld from) the last hop, or a memo entry served from another
// ranking shows here as a mismatch, candidate by candidate.

// refFold is Algorithm 1's delay and the bottleneck estimate over one
// walked path, a plain loop over its slots.
func refFold(topo *collector.Topology, slots []collector.Slot, leavesHost bool, k time.Duration, cal *Calibration) (delay time.Duration, bottleneck float64) {
	bottleneck = -1
	for i, slot := range slots {
		if d, ok := topo.SlotDelay(slot); ok {
			delay += d
		} else {
			delay += FallbackLinkDelay
		}
		util := 0.0
		if i > 0 || !leavesHost {
			if q, ok := topo.SlotQueueMax(slot); ok {
				delay += time.Duration(q) * k
				util = cal.Utilization(q)
			}
		}
		if avail := float64(topo.SlotRate(slot)) * (1 - util); bottleneck < 0 || avail < bottleneck {
			bottleneck = avail
		}
	}
	if bottleneck < 0 {
		bottleneck = 0
	}
	return delay, bottleneck
}

// foldRanker is one path ranker and the parameters the reference needs to
// compute what it should answer.
type foldRanker struct {
	r   Ranker
	k   time.Duration
	cal *Calibration
}

// refPerHost ranks every host but from by a walk to each, in the order the
// Ranker contract documents.
func refPerHost(topo *collector.Topology, fr foldRanker, from string, dataBytes int64) []Candidate {
	src := collector.NodeIdx(-1)
	if i, ok := topo.NodeIndex(from); ok {
		src = i
	}
	leavesHost := src >= 0 && topo.IsHostIdx(src)
	var out []Candidate
	var slots []collector.Slot
	for j := 0; j < topo.HostCount(); j++ {
		if topo.HostName(j) == from {
			continue
		}
		c := Candidate{Node: netsim.NodeID(topo.HostName(j))}
		var code collector.PathCode
		slots, code, _ = topo.SlotsInto(src, topo.HostNodeIndex(j), slots)
		if code == collector.PathOK {
			c.Reachable, c.Hops = true, len(slots)
			delay, bw := refFold(topo, slots, leavesHost, fr.k, fr.cal)
			switch fr.r.Metric() {
			case MetricDelay:
				c.Delay = delay
			case MetricBandwidth:
				c.BandwidthBps = bw
			case MetricTransferTime:
				c.Delay, c.BandwidthBps = delay, bw
				if dataBytes > 0 {
					c.Delay += time.Duration(float64(dataBytes*8) / max(bw, minBandwidthBps) * float64(time.Second))
				}
			}
		}
		out = append(out, c)
	}
	bandwidth := fr.r.Metric() == MetricBandwidth
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Reachable != b.Reachable {
			return a.Reachable
		}
		if a.Reachable {
			if bandwidth && a.BandwidthBps != b.BandwidthBps {
				return a.BandwidthBps > b.BandwidthBps
			}
			if !bandwidth && a.Delay != b.Delay {
				return a.Delay < b.Delay
			}
		}
		return a.Node < b.Node
	})
	return out
}

// foldFabric learns a small fabric that holds every case a per-switch fold
// must keep, and returns snapshots of it; each call to next ingests one
// more round of probes with other queue values and latencies.
//
//   - s1 roots a1, a2, a3 and s2 roots b1, b2: hosts whose walks share
//     their switch's prefix. s0 roots c and sched. Requesters s0, s1 and s2
//     are switches that root hosts: an empty prefix, and a last hop whose
//     queue term counts.
//   - m probes through s1 and then, toward b1, through s2. A host has one
//     port, so m's own row holds s2 alone while s1's row still holds m.
//   - hx's row is the host hy (a host-to-host link), so hx is its own root
//     and is walked directly, from hy, the one node that reaches it. No
//     walk from hx reaches anything.
//   - sZ roots hq, hr and hy but its row holds only those hosts, so the walk
//     from any other node to sZ fails and all three are unreachable.
//   - ghost probed once, through s9, long enough ago that its edges aged
//     out: a host with no adjacency. It and "nobody" are requesters with
//     no adjacency.
type foldFabric struct {
	now   time.Duration
	coll  *collector.Collector
	seq   map[[2]string]uint64
	round int
}

func newFoldFabric() *foldFabric {
	f := &foldFabric{now: time.Second, seq: map[[2]string]uint64{}}
	f.coll = collector.New("sched", func() time.Duration { return f.now },
		collector.Config{QueueWindow: time.Second, DefaultLinkRateBps: 50_000_000})
	f.probe("ghost", "", rec{"s9", 1, 0})
	f.now += time.Minute // past the adjacency TTL (5 queue windows)
	f.coll.SetLinkRate("s1", "s0", 30_000_000)
	f.coll.SetLinkRate("s2", "b2", 10_000_000)
	return f
}

// rec is one switch a probe crosses: the switch and its ports.
type rec struct {
	dev     string
	in, out int
}

// probe ingests one probe from origin over the given switches to target
// (the scheduler when empty), with a queue report on every port of every
// switch crossed, its value varying by round, switch and port.
func (f *foldFabric) probe(origin, target string, recs ...rec) {
	key := [2]string{origin, target}
	f.seq[key]++
	p := &telemetry.ProbePayload{Origin: origin, Target: target, Seq: f.seq[key], LastHopLatency: time.Duration(1+f.round) * time.Millisecond}
	for i, r := range recs {
		var qs []telemetry.PortQueue
		for port := 0; port < 6; port++ {
			q := (f.round*7 + len(r.dev)*3 + int(r.dev[len(r.dev)-1])*5 + port*11) % 41
			if q%4 != 0 { // some ports report nothing
				qs = append(qs, telemetry.PortQueue{Port: port, MaxQueue: q, Packets: 1})
			}
		}
		p.Stack.Append(telemetry.Record{
			Device: r.dev, IngressPort: r.in, EgressPort: r.out,
			LinkLatency: time.Duration(1+(f.round+i+r.in)%5) * time.Millisecond,
			EgressTS:    f.now - time.Millisecond,
			Queues:      qs,
		})
	}
	f.coll.HandleProbe(p)
}

// next ingests one round of the fabric's probes and returns the snapshot.
func (f *foldFabric) next() *collector.Topology {
	f.round++
	f.now += 50 * time.Millisecond
	for i, h := range []string{"a1", "a2", "a3"} {
		f.probe(h, "", rec{"s1", i + 1, 0}, rec{"s0", 1, 0})
	}
	for i, h := range []string{"b1", "b2"} {
		f.probe(h, "", rec{"s2", i + 1, 0}, rec{"s0", 2, 0})
	}
	f.probe("c", "", rec{"s0", 5, 0})
	f.probe("m", "", rec{"s1", 4, 0}, rec{"s0", 1, 0})
	f.probe("m", "b1", rec{"s2", 4, 1})
	f.probe("hy", "", rec{"s2", 3, 0}, rec{"s0", 2, 0})
	f.probe("hx", "hy")
	f.probe("hq", "hy", rec{"sZ", 1, 3})
	f.probe("hr", "hy", rec{"sZ", 2, 3})
	return f.coll.Snapshot()
}

// TestRankFoldMatchesPerHostWalks ranks from every node of the fabric (and
// from a stranger and the stranded ghost) with each path ranker, whole and
// counted, through one scratch reused across rankings and snapshots, and
// compares every answer with the per-host reference.
func TestRankFoldMatchesPerHostWalks(t *testing.T) {
	cal, err := NewCalibration([]CalPoint{{Queue: 0, Util: 0}, {Queue: 4, Util: 0.3}, {Queue: 25, Util: 0.9}, {Queue: 40, Util: 1}})
	if err != nil {
		t.Fatal(err)
	}
	delay := &DelayRanker{K: 3 * time.Millisecond}
	bw := &BandwidthRanker{Calibration: cal}
	rankers := []foldRanker{
		{r: delay, k: 3 * time.Millisecond, cal: DefaultCalibration()},
		{r: &DelayRanker{}, k: DefaultK, cal: DefaultCalibration()},
		{r: bw, k: DefaultK, cal: cal},
		{r: &TransferTimeRanker{Delay: delay, Bandwidth: bw}, k: 3 * time.Millisecond, cal: cal},
		{r: &TransferTimeRanker{}, k: DefaultK, cal: DefaultCalibration()},
	}
	f := newFoldFabric()
	snaps := []*collector.Topology{f.next(), f.next(), f.next()}
	// The same structure throughout: the snapshots differ in slot values only.
	if a, b := snaps[0].Hosts(), snaps[2].Hosts(); len(a) != len(b) {
		t.Fatalf("host set changed between rounds: %v, %v", a, b)
	}
	topo := snaps[0]
	if i := topo.HostIndex("ghost"); i < 0 || topo.HostNodeIndex(i) >= 0 {
		t.Fatalf("ghost should be a host without adjacency (position %d)", i)
	}
	if _, err := topo.Path("a1", "hq"); err == nil {
		t.Fatal("sZ's hosts should be unreachable from a1")
	}
	if _, err := topo.Path("hx", "a1"); err == nil {
		t.Fatal("walks from hx should fail")
	}
	for _, p := range [][2]string{{"s1", "a2"}, {"hy", "hx"}, {"hq", "hr"}} {
		if _, err := topo.Path(p[0], p[1]); err != nil {
			t.Fatalf("%s -> %s: %v", p[0], p[1], err)
		}
	}
	var requesters []string
	for i := range collector.NodeIdx(topo.NodeCount()) {
		requesters = append(requesters, topo.NodeName(i))
	}
	requesters = append(requesters, "ghost", "nobody")

	s := new(rankScratch)
	var checked, reachable int
	// Interleave the snapshots so that the scratch holds another
	// snapshot's, or another requester's, ranking every time.
	for _, topo := range []*collector.Topology{snaps[0], snaps[1], snaps[0], snaps[2]} {
		for _, fr := range rankers {
			for _, from := range requesters {
				for _, dataBytes := range []int64{0, 3_000_000} {
					want := refPerHost(topo, fr, from, dataBytes)
					fromIdx := collector.NodeIdx(-1)
					if i, ok := topo.NodeIndex(from); ok {
						fromIdx = i
					}
					n := 0
					for _, c := range want {
						if c.Reachable {
							n++
						}
					}
					for _, count := range []int{0, 1, 3} {
						got := fr.r.Rank(topo, netsim.NodeID(from), fromIdx, topo.HostIndex(from), dataBytes, count, s)
						w := want
						if count > 0 && count < n {
							w = want[:count]
						}
						if err := sameRanking(got, w); err != nil {
							t.Fatalf("%v from %s (%d B, count %d): %v\n got  %v\n want %v",
								fr.r.Metric(), from, dataBytes, count, err, got, w)
						}
						checked++
					}
					reachable += n
				}
			}
		}
	}
	if reachable == 0 {
		t.Fatal("no candidate was reachable")
	}
	t.Logf("%d rankings checked, %d reachable candidates", checked, reachable)
}
