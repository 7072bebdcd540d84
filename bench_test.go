// The root benchmark suite regenerates each of the paper's tables and
// figures at reduced scale (go test -bench=.), reporting the paper's
// headline metrics via b.ReportMetric. cmd/intbench runs the full-size
// versions.
package intsched_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/dataplane"
	"intsched/internal/experiment"
	"intsched/internal/live"
	"intsched/internal/netsim"
	"intsched/internal/probe"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
	"intsched/internal/wire"
	"intsched/internal/workload"
)

// benchTasks trades bench runtime against statistical noise in the gain
// metrics; intbench runs the paper's full 200 tasks.
const benchTasks = 100

// BenchmarkTable1WorkloadGeneration measures workload synthesis from the
// paper's Table I class definitions.
func BenchmarkTable1WorkloadGeneration(b *testing.B) {
	devices := []netsim.NodeID{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := workload.Generate(workload.GenConfig{
			Kind:      workload.Distributed,
			TaskCount: 200,
			Devices:   devices,
		}, simtime.NewRand(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Utilization runs the calibration sweep at three utilization
// levels and reports the saturated queue depth and RTT.
func BenchmarkFig3Utilization(b *testing.B) {
	var last []experiment.Fig3Point
	for i := 0; i < b.N; i++ {
		pts, err := experiment.Fig3(experiment.Fig3Config{
			Utilizations: []float64{0, 0.5, 1.0},
			Duration:     20 * time.Second,
			Seed:         int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	if len(last) == 3 {
		b.ReportMetric(last[2].MeanMaxQueue, "satQueue(pkts)")
		b.ReportMetric(last[2].MeanRTT.Seconds()*1000, "satRTT(ms)")
		b.ReportMetric(last[0].MeanRTT.Seconds()*1000, "idleRTT(ms)")
	}
}

// benchCompare runs the scenario under the network-aware metric and the
// Nearest baseline and reports the paper's gain headline.
func benchCompare(b *testing.B, kind workload.Kind, metric core.Metric, transfer bool) {
	b.Helper()
	var gain float64
	for i := 0; i < b.N; i++ {
		cmp, err := experiment.Compare(experiment.Scenario{
			Seed:       int64(42 + i),
			Workload:   kind,
			TaskCount:  benchTasks,
			Background: experiment.BackgroundRandom,
		}, []core.Metric{metric, core.MetricNearest})
		if err != nil {
			b.Fatal(err)
		}
		gain = cmp.OverallGain(metric, core.MetricNearest, transfer)
	}
	b.ReportMetric(gain*100, "gain%vsNearest")
}

// BenchmarkFig5ServerlessDelay regenerates Fig 5 (paper: 17-31% gain).
func BenchmarkFig5ServerlessDelay(b *testing.B) {
	benchCompare(b, workload.Serverless, core.MetricDelay, false)
}

// BenchmarkFig6DistributedDelay regenerates Fig 6 (paper: 7-13% gain).
func BenchmarkFig6DistributedDelay(b *testing.B) {
	benchCompare(b, workload.Distributed, core.MetricDelay, false)
}

// BenchmarkFig7DistributedBandwidth regenerates Fig 7 on transfer times
// (paper: 28-40% reduction).
func BenchmarkFig7DistributedBandwidth(b *testing.B) {
	benchCompare(b, workload.Distributed, core.MetricBandwidth, true)
}

// BenchmarkFig8GainECDF regenerates the per-task gain distribution and
// reports the ≤0-gain fraction (paper: 19% for distributed-bandwidth).
func BenchmarkFig8GainECDF(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		cmp, err := experiment.Compare(experiment.Scenario{
			Seed:       int64(42 + i),
			Workload:   workload.Distributed,
			TaskCount:  benchTasks,
			Background: experiment.BackgroundRandom,
		}, []core.Metric{core.MetricBandwidth, core.MetricNearest})
		if err != nil {
			b.Fatal(err)
		}
		curve := experiment.BuildFig8Curve("bw", cmp, core.MetricBandwidth)
		frac = curve.ZeroOrNegativeFraction()
	}
	b.ReportMetric(frac*100, "zeroOrNegGain%")
}

// BenchmarkFig9ProbingInterval regenerates the probing-frequency sweep at
// its two extremes and reports the slowdown of 30s probing vs 100ms
// (paper: >20%).
func BenchmarkFig9ProbingInterval(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		pts, err := experiment.Fig9(experiment.Fig9Config{
			Seed:      int64(42 + i),
			TaskCount: benchTasks,
			Intervals: []time.Duration{100 * time.Millisecond, 30 * time.Second},
		})
		if err != nil {
			b.Fatal(err)
		}
		fast, slow := pts[0].Traffic1MeanTransfer, pts[1].Traffic1MeanTransfer
		if fast > 0 {
			slowdown = float64(slow-fast) / float64(fast)
		}
	}
	b.ReportMetric(slowdown*100, "slowdown%@30s")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationKFactor sweeps the queue→latency conversion factor,
// reporting the gain at the paper's k=20ms.
func BenchmarkAblationKFactor(b *testing.B) {
	for _, k := range []time.Duration{time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond} {
		b.Run(k.String(), func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				cmp, err := experiment.Compare(experiment.Scenario{
					Seed:       int64(42 + i),
					Workload:   workload.Serverless,
					TaskCount:  benchTasks,
					Background: experiment.BackgroundRandom,
					K:          k,
				}, []core.Metric{core.MetricDelay, core.MetricNearest})
				if err != nil {
					b.Fatal(err)
				}
				gain = cmp.OverallGain(core.MetricDelay, core.MetricNearest, false)
			}
			b.ReportMetric(gain*100, "gain%vsNearest")
		})
	}
}

// BenchmarkAblationQueueCapacity sweeps the switch egress queue depth
// (BMv2 defaults to 64) at 95% utilization: shallow queues drop instead of
// delaying, deep queues buffer-bloat the max-queue signal INT reports.
func BenchmarkAblationQueueCapacity(b *testing.B) {
	for _, cap := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			var q float64
			var drops uint64
			for i := 0; i < b.N; i++ {
				pts, err := experiment.Fig3(experiment.Fig3Config{
					Utilizations: []float64{0.95},
					Duration:     15 * time.Second,
					Seed:         int64(i),
					Links:        experiment.LinkParams{QueueCap: cap},
				})
				if err != nil {
					b.Fatal(err)
				}
				q = pts[0].MeanMaxQueue
				drops = pts[0].Drops
			}
			b.ReportMetric(q, "maxQueue@95%")
			b.ReportMetric(float64(drops), "drops")
		})
	}
}

// --- Microbenchmarks of the substrates -----------------------------------

// BenchmarkEngineEventThroughput measures raw DES event processing.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := simtime.NewEngine()
	var next func()
	count := 0
	next = func() {
		count++
		if count < b.N {
			e.After(time.Microsecond, next)
		}
	}
	b.ResetTimer()
	e.After(time.Microsecond, next)
	e.RunUntilIdle()
}

// BenchmarkNetsimPacketForwarding measures per-hop packet cost through the
// Fig 4 topology.
func BenchmarkNetsimPacketForwarding(b *testing.B) {
	engine := simtime.NewEngine()
	topo, err := experiment.BuildFig4(engine, experiment.LinkParams{})
	if err != nil {
		b.Fatal(err)
	}
	nw := topo.Net
	nw.Node("n8").Handler = func(p *netsim.Packet) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nw.Send(nw.NewPacket(netsim.KindData, "n1", "n8", 1500))
		engine.RunUntilIdle()
	}
}

// BenchmarkTCPTransfer measures the simulated transport: one 1 MB transfer
// across the Fig 4 topology per iteration.
func BenchmarkTCPTransfer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		engine := simtime.NewEngine()
		topo, err := experiment.BuildFig4(engine, experiment.LinkParams{})
		if err != nil {
			b.Fatal(err)
		}
		domain := transport.NewDomain(topo.Net).InstallAll()
		done := false
		domain.Stack("n1").Transfer("n8", 1_000_000, func(transport.FlowStats) { done = true })
		engine.RunUntilIdle()
		if !done {
			b.Fatal("transfer did not finish")
		}
	}
}

// BenchmarkProbeCodec measures INT probe marshal/unmarshal (the live-mode
// hot path): the allocating entry points ("fresh") against the scratch-
// reusing ones a steady telemetry stream should use ("reuse", zero
// allocs/op).
func BenchmarkProbeCodec(b *testing.B) {
	p := &telemetry.ProbePayload{Origin: "n1", Seq: 9, SentAt: time.Second}
	for h := 0; h < 6; h++ {
		p.Stack.Append(telemetry.Record{
			Device: "s01", IngressPort: 1, EgressPort: 2,
			LinkLatency: 10 * time.Millisecond, HopLatency: time.Millisecond,
			EgressTS: time.Second,
			Queues: []telemetry.PortQueue{
				{Port: 0, MaxQueue: 5, Packets: 100},
				{Port: 1, MaxQueue: 0, Packets: 3},
				{Port: 2, MaxQueue: 31, Packets: 999},
			},
		})
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, err := telemetry.MarshalProbe(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := telemetry.UnmarshalProbe(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		var buf []byte
		var dec telemetry.ProbePayload
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = telemetry.AppendProbe(buf[:0], p)
			if err != nil {
				b.Fatal(err)
			}
			if err := telemetry.UnmarshalProbeInto(&dec, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkINTStamp measures the two stages of the one INT program as both
// runtimes call them: a production packet through Observe, and a probe
// stamped into a reused payload (the live switch's per-port scratch). Both
// must stay at 0 allocs/op.
func BenchmarkINTStamp(b *testing.B) {
	prog := dataplane.NewINTProgram("s01", 4, dataplane.INTConfig{})
	b.Run("Observe", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog.Observe(false, i&3, i&63, 0, 0, false)
		}
	})
	b.Run("Stamp", func(b *testing.B) {
		var payload telemetry.ProbePayload
		hop := dataplane.Hop{InPort: 0, OutPort: 1}
		prog.Stamp(&payload, hop) // the first use sizes the record slot
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			payload.HopCount, payload.Stack.Records = 0, payload.Stack.Records[:0]
			prog.Stamp(&payload, hop)
		}
	})
}

// BenchmarkScenarioRun measures one full scheduling scenario end to end —
// the unit cell the experiment pool fans out — with allocation accounting
// for the DES free list and packet-recycling work.
func BenchmarkScenarioRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(experiment.Scenario{
			Seed:             42, // fixed seed: identical work every iteration
			Workload:         workload.Serverless,
			Metric:           core.MetricDelay,
			TaskCount:        20,
			MeanInterarrival: time.Second,
			Background:       experiment.BackgroundRandom,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Incomplete != 0 {
			b.Fatalf("%d incomplete tasks", res.Incomplete)
		}
	}
}

// BenchmarkCollectorIngest measures probe processing at the scheduler. One
// iteration is one probe.
//
// fanin is 256 streams, each crossing an edge switch shared by 8 streams, an
// aggregation switch shared by 64 and one core switch shared by all, every
// record flushing its switch's 8 port registers. The clock advances one
// 100 ms probing interval per round of streams under a two-interval queue
// window, so reports expire at the rate they arrive and the core's port
// windows hold ~512 reports each. Timing starts after 30 rounds of warm-up.
//
// metro is the feed ingest_metro decodes: one probing round of the metro
// fabric's 1 024 streams, replayed with the clock and sequence numbers
// carried forward a round per lap, into a collector that learned the round
// once. The probes are decoded, and two laps ingested, before the timer
// starts.
func BenchmarkCollectorIngest(b *testing.B) {
	b.Run("fanin", benchIngestFanIn)
	b.Run("metro", func(b *testing.B) {
		spec, err := experiment.MetroSpec(experiment.MetroConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		fabric, trace := fabricTrace(b, spec, 1)
		var now time.Duration
		coll, _ := learnTrace(b, fabric, trace, &now)
		probes := make([]telemetry.ProbePayload, len(trace))
		for i, at := range trace {
			if err := telemetry.UnmarshalProbeInto(&probes[i], at.Wire); err != nil {
				b.Fatal(err)
			}
		}
		lap := 0
		ingest := func(i int) {
			if i%len(trace) == 0 {
				lap++
			}
			p := &probes[i%len(trace)]
			p.Seq++
			for r := range p.Stack.Records {
				p.Stack.Records[r].EgressTS += probe.DefaultInterval
			}
			now = trace[i%len(trace)].At + time.Duration(lap)*probe.DefaultInterval
			coll.HandleProbe(p)
		}
		// Two laps fill the queue window (two probing intervals) before timing.
		warm := 2 * len(trace)
		for i := 0; i < warm; i++ {
			ingest(i)
		}
		before := coll.Stats()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ingest(warm + i)
		}
		b.StopTimer()
		if st := coll.Stats(); st.ProbesOutOfOrder != before.ProbesOutOfOrder || st.PathRemaps != before.PathRemaps {
			b.Fatalf("replay dropped %d probes as out of order and remapped %d paths",
				st.ProbesOutOfOrder-before.ProbesOutOfOrder, st.PathRemaps-before.PathRemaps)
		}
	})
}

func benchIngestFanIn(b *testing.B) {
	const streams, ports, interval = 256, 8, 100 * time.Millisecond
	now := time.Second
	coll := collector.New("sched", func() time.Duration { return now }, collector.Config{QueueWindow: 2 * interval})
	probes := make([]*telemetry.ProbePayload, streams)
	for s := range probes {
		p := &telemetry.ProbePayload{Origin: fmt.Sprintf("h%03d", s)}
		for _, dev := range []string{fmt.Sprintf("edge%02d", s/8), fmt.Sprintf("agg%d", s/64), "core"} {
			rec := telemetry.Record{Device: dev, IngressPort: s % ports, EgressPort: ports, LinkLatency: time.Millisecond}
			for port := 0; port < ports; port++ {
				rec.Queues = append(rec.Queues, telemetry.PortQueue{Port: port, MaxQueue: (s + port) % 7, Packets: 10})
			}
			p.Stack.Append(rec)
		}
		probes[s] = p
	}
	ingest := func(i int) {
		p := probes[i%streams]
		now += interval / streams
		p.Seq++
		p.Stack.Records[2].EgressTS = now - time.Millisecond
		coll.HandleProbe(p)
	}
	for i := 0; i < 30*streams; i++ {
		ingest(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest(i)
	}
}

// BenchmarkSnapshotPublish measures what a query pays when it meets a new
// epoch: one probe of the default Clos fabric's feed (208 switches, 256
// hosts, ~5 records a probe) is ingested outside the timer, then Snapshot()
// publishes. The probe changed a few links' delays and a few dozen queue
// maxima; the cost must be the copy of the slot array, not a rebuild of the
// fabric's index (the 8-host Fig 4 network is too small to tell the two
// apart).
func BenchmarkSnapshotPublish(b *testing.B) {
	const rounds = 3
	fabric, trace := closTrace(b, rounds)
	var now time.Duration
	coll := collector.New(fabric.Scheduler, func() time.Duration { return now }, collector.Config{QueueWindow: 2 * probe.DefaultInterval})
	var p telemetry.ProbePayload
	// The trace repeats with its clock and sequence numbers carried forward.
	ingest := func(i int) {
		lap, at := i/len(trace), trace[i%len(trace)]
		if err := telemetry.UnmarshalProbeInto(&p, at.Wire); err != nil {
			b.Fatal(err)
		}
		shift := time.Duration(lap*rounds) * probe.DefaultInterval
		now = at.At + shift
		p.Seq += uint64(lap * rounds)
		for r := range p.Stack.Records {
			p.Stack.Records[r].EgressTS += shift
		}
		coll.HandleProbe(&p)
	}
	for i := 0; i < len(trace); i++ {
		ingest(i)
	}
	coll.Snapshot()
	rebuilds := coll.Stats().StructureRebuilds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ingest(len(trace) + i)
		b.StartTimer()
		benchSnapshot = coll.Snapshot()
	}
	b.StopTimer()
	if got := coll.Stats().StructureRebuilds; got != rebuilds {
		b.Fatalf("%d structure rebuilds on a steady feed", got-rebuilds)
	}
}

var benchSnapshot *collector.Topology

// BenchmarkColdRanking measures what a query pays once it holds a snapshot
// the rank cache has nothing for — every query beside a 2 550 probes/s feed:
// one ComputeRanking of the 255 other hosts of the default Clos fabric, the
// requester rotating over the hosts. The destination trees are warm (the
// structure does not change under a steady feed), so the cost is the walks,
// the estimates and the sort; the one allocation is the private result.
//
// The count=8 variants are the answer a device on the churn workload gets:
// a sorted Count: 8 query through Engine.Answer, on two snapshots of one
// structure taken alternately, so that every lookup meets a new epoch and
// misses. The walks and estimates are the same; only the 8 best keys are
// sorted and only 8 candidates copied, into the 384-byte ranking the cache
// keeps, and from it into one reused answer buffer. The other allocations
// are the cache's: the epoch's map, its bucket and the entry.
//
// delay/metro is the whole delay ranking on the metro fabric, the one that
// ingest_metro runs 8 times a round: 1 024 candidates under 129 attachment
// switches, so the walks fold once per switch and the sort of 1 024 keys is
// most of the cost. Again the one allocation is the private result.
func BenchmarkColdRanking(b *testing.B) {
	fabric, trace := closTrace(b, 1)
	coll, p := learnTrace(b, fabric, trace, new(time.Duration))
	topo := coll.Snapshot()
	hosts := topo.Hosts()
	// The last probe once more, a sequence number on: a new epoch on the
	// same structure.
	p.Seq++
	coll.HandleProbe(p)
	epochs := [2]*collector.Topology{topo, coll.Snapshot()}
	if epochs[1].Epoch() == topo.Epoch() {
		b.Fatal("the repeated probe did not advance the epoch")
	}
	for _, r := range []core.Ranker{&core.DelayRanker{}, &core.BandwidthRanker{}} {
		b.Run(r.Metric().String(), func(b *testing.B) { benchWholeRanking(b, topo, r) })
		b.Run(r.Metric().String()+"/count=8", func(b *testing.B) {
			var e core.Engine
			e.Register(r)
			req := core.QueryRequest{Metric: r.Metric(), Count: 8, Sorted: true}
			for i, h := range hosts { // build every destination tree of both snapshots
				req.From = netsim.NodeID(h)
				benchRanking, _ = e.Answer(benchRanking[:0], epochs[i%2], &req)
			}
			if len(benchRanking) != 8 {
				b.Fatalf("answered %d candidates", len(benchRanking))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req.From = netsim.NodeID(hosts[i%len(hosts)])
				benchRanking, _ = e.Answer(benchRanking[:0], epochs[i%2], &req)
			}
			b.StopTimer()
			if st := e.CacheStats(); st.Hits != 0 {
				b.Fatalf("%d rank-cache hits", st.Hits)
			}
		})
	}
	b.Run("delay/metro", func(b *testing.B) {
		spec, err := experiment.MetroSpec(experiment.MetroConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		fabric, trace := fabricTrace(b, spec, 1)
		coll, _ := learnTrace(b, fabric, trace, new(time.Duration))
		benchWholeRanking(b, coll.Snapshot(), &core.DelayRanker{})
	})
}

var benchRanking []core.Candidate

// benchWholeRanking times one ComputeRanking on topo with warm trees, the
// requester rotating over the hosts.
func benchWholeRanking(b *testing.B, topo *collector.Topology, r core.Ranker) {
	hosts := topo.Hosts()
	for _, h := range hosts { // build every destination tree
		benchRanking = core.ComputeRanking(topo, r, netsim.NodeID(h), 0)
	}
	if n := len(benchRanking); n != len(hosts)-1 || !benchRanking[n-1].Reachable {
		b.Fatalf("ranked %d of %d hosts, last reachable %v", n, len(hosts)-1, benchRanking[n-1].Reachable)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRanking = core.ComputeRanking(topo, r, netsim.NodeID(hosts[i%len(hosts)]), 0)
	}
}

// BenchmarkRankingAfterLinkLearned times the first whole delay ranking on the
// default Clos after the collector learns one more switch–switch link, with
// the node set unchanged: the price of building every tree a ranking walks
// over the new structure. Each iteration, outside the timer, ingests a probe
// whose path crosses two leaves not yet linked — a link the fabric does not
// have, over ports no leaf uses — and publishes the snapshot; the timed
// ranking is the first on it, from a rotating host. The trees of the
// previous structure are warm. Run it with -benchtime=Nx, N at most the
// 8 128 leaf pairs.
func BenchmarkRankingAfterLinkLearned(b *testing.B) {
	fabric, trace := closTrace(b, 1)
	now := new(time.Duration)
	coll, _ := learnTrace(b, fabric, trace, now)
	topo := coll.Snapshot()
	hosts := topo.Hosts()
	// One host per leaf: the leaf is its only neighbour.
	var leaves, onLeaf []string
	seen := make(map[string]bool)
	for _, h := range hosts {
		if nb := topo.Neighbors(h); len(nb) == 1 && !topo.IsHost(nb[0]) && !seen[nb[0]] {
			seen[nb[0]] = true
			leaves, onLeaf = append(leaves, nb[0]), append(onLeaf, h)
		}
	}
	type pair struct{ a, b int }
	var pairs []pair
	for i := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	if b.N > len(pairs) {
		b.Fatalf("b.N %d exceeds the %d leaf pairs: run with -benchtime=Nx", b.N, len(pairs))
	}
	nodes := topo.NodeCount()
	benchRanking = core.ComputeRanking(topo, &core.DelayRanker{}, netsim.NodeID(hosts[0]), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pr := pairs[i]
		coll.HandleProbe(&telemetry.ProbePayload{
			Origin: onLeaf[pr.a], Target: onLeaf[pr.b], Seq: 1, LastHopLatency: time.Microsecond,
			Stack: telemetry.Stack{Records: []telemetry.Record{
				{Device: leaves[pr.a], IngressPort: 1000, EgressPort: 1001, EgressTS: *now},
				{Device: leaves[pr.b], HopIndex: 1, IngressPort: 1002, EgressPort: 1003, LinkLatency: time.Microsecond, EgressTS: *now},
			}},
		})
		topo = coll.Snapshot()
		if topo.NodeCount() != nodes || !slices.Contains(topo.Neighbors(leaves[pr.a]), leaves[pr.b]) {
			b.Fatalf("%d nodes, want %d, with %s linked to %s", topo.NodeCount(), nodes, leaves[pr.a], leaves[pr.b])
		}
		b.StartTimer()
		benchRanking = core.ComputeRanking(topo, &core.DelayRanker{}, netsim.NodeID(hosts[i%len(hosts)]), 0)
	}
}

// learnTrace ingests a fabric's probe trace into a new collector whose clock
// reads *now, set to the trace's clock as it goes, and returns it with the
// last probe ingested. It fails unless the collector learned every host of
// the fabric.
func learnTrace(b *testing.B, fabric *experiment.Topology, trace []experiment.TracedProbe, now *time.Duration) (*collector.Collector, *telemetry.ProbePayload) {
	coll := collector.New(fabric.Scheduler, func() time.Duration { return *now }, collector.Config{QueueWindow: 2 * probe.DefaultInterval})
	p := new(telemetry.ProbePayload)
	for _, at := range trace {
		if err := telemetry.UnmarshalProbeInto(p, at.Wire); err != nil {
			b.Fatal(err)
		}
		*now = at.At
		coll.HandleProbe(p)
	}
	if n := coll.Snapshot().HostCount(); n != len(fabric.Hosts) {
		b.Fatalf("learned %d of the fabric's %d hosts", n, len(fabric.Hosts))
	}
	return coll, p
}

// closTrace returns the default Clos fabric and the probes its scheduler
// receives over the given number of probing rounds.
func closTrace(b *testing.B, rounds int) (*experiment.Topology, []experiment.TracedProbe) {
	spec, err := experiment.ClosSpec(experiment.ClosConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return fabricTrace(b, spec, rounds)
}

// fabricTrace builds a generated fabric and returns it with the probes its
// scheduler receives over the given number of probing rounds. Links run at
// 1 Gb/s: at the paper's 20 Mb/s the 255 probe streams of the Clos fabric
// (≈ 20.4 Mb/s) overrun the scheduler's one downlink, and the collector
// learns 229 of the 256 hosts.
func fabricTrace(b *testing.B, spec *experiment.TopoSpec, rounds int) (*experiment.Topology, []experiment.TracedProbe) {
	spec.RateBps = 1_000_000_000
	fabric, err := spec.Build(simtime.NewEngine())
	if err != nil {
		b.Fatal(err)
	}
	trace, err := experiment.TraceProbes(fabric, rounds)
	if err != nil {
		b.Fatal(err)
	}
	return fabric, trace
}

// BenchmarkQueryRoundTrip measures query-sent → answer-received over
// loopback: live.Query against a CollectorDaemon that learned the default
// Clos fabric and whose feed has stopped, so every answer is a rank-cache hit
// and what is timed is the query wire — one kept connection, one binary
// frame each way. Under -benchmem the contract is 14 allocs/op: the
// response, its candidate slice and metric, and one name per candidate (8
// here) are what the client hands its caller; the requester and metric names
// are the daemon's; the request is this loop's. A connection dialled per
// query, or a JSON frame, shows as ~70.
func BenchmarkQueryRoundTrip(b *testing.B) {
	fabric, trace := closTrace(b, 2)
	const queueWindow = 10 * time.Millisecond
	d, err := live.NewCollectorDaemon(string(fabric.Scheduler), live.DaemonConfig{
		AdjacencyTTL: collector.NoAdjacencyAging,
		QueueWindow:  queueWindow,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	var p telemetry.ProbePayload
	var origins []string
	seen := make(map[string]bool)
	for _, at := range trace {
		if err := telemetry.UnmarshalProbeInto(&p, at.Wire); err != nil {
			b.Fatal(err)
		}
		d.Collector().HandleProbe(&p)
		if !seen[p.Origin] {
			seen[p.Origin] = true
			origins = append(origins, p.Origin)
		}
	}
	// The queue reports age out of their window, each expiry a new epoch;
	// only then is the telemetry frozen.
	time.Sleep(3 * queueWindow)
	metrics := []string{"delay", "bandwidth"}
	addr := d.QueryAddr()
	query := func(i int) {
		req := wire.QueryRequest{From: origins[i%len(origins)], Metric: metrics[i%len(metrics)], Count: 8, Sorted: true}
		resp, err := live.Query(addr, &req, 5*time.Second)
		if err != nil || len(resp.Candidates) != 8 {
			b.Fatalf("query %d: %v, %+v", i, err, resp)
		}
	}
	for i := 0; i < len(origins)*len(metrics); i++ {
		query(i)
	}
	misses := d.CacheStats().Misses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query(i)
	}
	b.StopTimer()
	if got := d.CacheStats().Misses; got != misses {
		b.Fatalf("%d rank-cache misses on a frozen feed", got-misses)
	}
}

// BenchmarkDelayRanking measures Algorithm 1 over a learned Fig-4-sized
// topology.
func BenchmarkDelayRanking(b *testing.B) {
	coll := warmedCollector(b)
	topo := coll.Snapshot()
	ranker := &core.DelayRanker{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeRanking(topo, ranker, "n1", 0)
	}
}

// BenchmarkBandwidthRanking measures the bottleneck estimator.
func BenchmarkBandwidthRanking(b *testing.B) {
	coll := warmedCollector(b)
	topo := coll.Snapshot()
	ranker := &core.BandwidthRanker{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ComputeRanking(topo, ranker, "n1", 0)
	}
}

// BenchmarkIndexHotPath measures the index-space scheduler read path on a
// warmed Fig 4 deployment with a frozen snapshot: PathInto with reused
// scratch, and warm single/batched ranking queries copied from the cache
// entries into one reused buffer (allocs/op must stay 0 on all three).
func BenchmarkIndexHotPath(b *testing.B) {
	snap := warmedCollector(b).Snapshot()
	hosts := snap.Hosts()
	src, ok := snap.NodeIndex(hosts[0])
	if !ok {
		b.Fatal("host not in learned topology")
	}
	dst, ok := snap.NodeIndex(hosts[len(hosts)-1])
	if !ok {
		b.Fatal("host not in learned topology")
	}
	b.Run("PathInto", func(b *testing.B) {
		var scratch []int32
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, code, _ := snap.PathInto(src, dst, scratch)
			scratch = p
			if code != collector.PathOK {
				b.Fatalf("path code %v", code)
			}
		}
	})
	var engine core.Engine
	engine.Register(&core.DelayRanker{})
	engine.Register(&core.BandwidthRanker{})
	req := &core.QueryRequest{From: netsim.NodeID(hosts[0]), Metric: core.MetricDelay, Sorted: true}
	benchRanking, _ = engine.Answer(benchRanking[:0], snap, req) // warm the cache entry
	b.Run("RankForWarm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if benchRanking, _ = engine.Answer(benchRanking[:0], snap, req); len(benchRanking) == 0 {
				b.Fatal("empty ranking")
			}
		}
	})
	reqs := make([]*core.QueryRequest, 64)
	for i := range reqs {
		metric := core.MetricDelay
		if i%2 == 1 {
			metric = core.MetricBandwidth
		}
		reqs[i] = &core.QueryRequest{From: netsim.NodeID(hosts[i%len(hosts)]), Metric: metric, Sorted: true}
	}
	rankAll := func() {
		for _, req := range reqs {
			benchRanking, _ = engine.Answer(benchRanking[:0], snap, req)
		}
	}
	rankAll()
	b.Run("RankBatchWarm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rankAll()
		}
	})
}

// warmedCollector builds a collector taught the Fig 4 topology via a short
// simulated probing phase.
func warmedCollector(b *testing.B) *collector.Collector {
	b.Helper()
	engine := simtime.NewEngine()
	topo, err := experiment.BuildFig4(engine, experiment.LinkParams{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := experiment.WarmCollector(topo, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	return res
}
