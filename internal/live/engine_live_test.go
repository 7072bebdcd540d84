package live

import (
	"fmt"
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
	"intsched/internal/wire"
)

// starRound builds one probing round of a star learned entirely from
// relayed probes (target e0, so every latency comes from the payload and
// not from the ingesting collector's clock): dev and e0 on s1, e1 behind
// s2, e2 behind s3. q12/q13/q10 are the queue maxima s1 reports on its
// ports toward s2, s3 and e0. The scheduler host itself never appears on a
// path, so it stays a known host with no adjacency — an unreachable
// candidate.
func starRound(seq uint64, q12, q13, q10 int) []*telemetry.ProbePayload {
	const lat = 10 * time.Millisecond
	s1q := []telemetry.PortQueue{
		{Port: 1, MaxQueue: q12, Packets: 1}, {Port: 2, MaxQueue: q13, Packets: 1}, {Port: 3, MaxQueue: q10, Packets: 1},
	}
	probe := func(origin string, recs ...telemetry.Record) *telemetry.ProbePayload {
		p := &telemetry.ProbePayload{Origin: origin, Target: "e0", Seq: seq, LastHopLatency: lat}
		for _, r := range recs {
			p.Stack.Append(r)
		}
		return p
	}
	return []*telemetry.ProbePayload{
		probe("e1",
			telemetry.Record{Device: "s2", IngressPort: 0, EgressPort: 1, LinkLatency: lat},
			telemetry.Record{Device: "s1", IngressPort: 1, EgressPort: 3, LinkLatency: lat, Queues: s1q}),
		probe("e2",
			telemetry.Record{Device: "s3", IngressPort: 0, EgressPort: 1, LinkLatency: lat},
			telemetry.Record{Device: "s1", IngressPort: 2, EgressPort: 3, LinkLatency: lat, Queues: s1q}),
		probe("dev",
			telemetry.Record{Device: "s1", IngressPort: 0, EgressPort: 3, LinkLatency: lat, Queues: s1q}),
	}
}

// TestDaemonAnswersMatchSimService: the live daemon and the simulated
// service wrap the same query engine, so fed the same probes and asked the
// same questions in the same order they must give field-identical answers —
// cold and warm, best-first and in ID order (the paper's option two), for
// known and non-host requesters, with and without the recovery filter.
func TestDaemonAnswersMatchSimService(t *testing.T) {
	type query struct {
		from, metric string
		dataBytes    int64
		count        int
	}
	var queries []query
	for _, from := range []string{"dev", "e1", "ghost"} {
		queries = append(queries,
			query{from: from, metric: "delay"},
			query{from: from, metric: "delay", count: 2},
			query{from: from, metric: "bandwidth"},
			query{from: from, metric: "transfer-time"},
			query{from: from, metric: "transfer-time", dataBytes: 5_000_000},
		)
	}
	collCfg := collector.Config{QueueWindow: time.Hour, AdjacencyTTL: collector.NoAdjacencyAging}
	for _, sorted := range []bool{true, false} {
		for _, exclude := range []bool{false, true} {
			t.Run(fmt.Sprintf("sorted=%v/exclude=%v", sorted, exclude), func(t *testing.T) {
				d, err := NewCollectorDaemon("sched", DaemonConfig{
					QueueWindow: collCfg.QueueWindow, AdjacencyTTL: collCfg.AdjacencyTTL,
					ExcludeUnreachable: exclude,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()

				nw := netsim.New(simtime.NewEngine())
				nw.AddHost("sched")
				coll := collector.New("sched", func() time.Duration { return time.Second }, collCfg)
				svc := core.NewService(transport.NewDomain(nw).Install("sched"), coll, core.ServiceConfig{ExcludeUnreachable: exclude})
				delay, bw := &core.DelayRanker{}, &core.BandwidthRanker{}
				svc.Register(delay)
				svc.Register(bw)
				svc.Register(&core.TransferTimeRanker{Delay: delay, Bandwidth: bw})

				// Round 2 queues one packet toward round 1's pick e0, making
				// e1 better (30 ms vs 40 ms); each round is asked twice, cold
				// then warm.
				for round, q := range [][3]int{{0, 10, 0}, {0, 10, 1}} {
					for _, p := range starRound(uint64(round+1), q[0], q[1], q[2]) {
						d.Collector().HandleProbe(p)
						coll.HandleProbe(p)
					}
					for pass := 0; pass < 2; pass++ {
						for _, q := range queries {
							metric, _ := core.ParseMetric(q.metric)
							want := svc.RankFor(&core.QueryRequest{
								From: netsim.NodeID(q.from), Metric: metric, Sorted: sorted, DataBytes: q.dataBytes, Count: q.count,
							})
							got := d.Answer(&wire.QueryRequest{From: q.from, Metric: q.metric, Sorted: sorted, DataBytes: q.dataBytes, Count: q.count})
							if got.Error != "" || len(got.Candidates) != len(want) {
								t.Fatalf("round %d pass %d %+v: daemon %+v, service %v", round, pass, q, got, want)
							}
							for i, w := range want {
								g := got.Candidates[i]
								if g.Node != string(w.Node) || g.DelayNs != int64(w.Delay) || g.BandwidthBps != w.BandwidthBps || g.Hops != w.Hops || g.Reachable != w.Reachable {
									t.Fatalf("round %d pass %d %+v [%d]: daemon %+v, service %+v", round, pass, q, i, g, w)
								}
							}
						}
					}
				}
				// The scenario must have exercised what it claims to: the
				// best server is not the first by ID, so the two orders
				// differ, and an unreachable candidate ends both.
				full := d.Answer(&wire.QueryRequest{From: "dev", Metric: "delay", Sorted: sorted}).Candidates
				if wantTop := map[bool]string{true: "e1", false: "e0"}[sorted]; full[0].Node != wantTop {
					t.Fatalf("sorted=%v answer for dev starts with %s, want %s", sorted, full[0].Node, wantTop)
				}
				if last := full[len(full)-1]; last.Reachable != exclude {
					t.Fatalf("exclude=%v but the answer ends with %+v", exclude, last)
				}
			})
		}
	}
}
