package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"time"

	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/dataplane"
	"intsched/internal/experiment"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
	"intsched/internal/wire"
)

// The isolated probes time the public functions of one layer at a time on
// fixed work, for layers a workload reaches only through another layer.
// They run after the windows of a traced run, on the same fixture.

// probeRounds is how many rounds of the fixture the codec and collector
// probes replay.
const probeRounds = 4

// probeLayers runs every isolated probe and records its metrics.
func probeLayers(r *report, t *probeTrace) error {
	r.set("gen.trace_delivered_share", t.deliveredShare(), t.rounds*t.perRound())
	if err := probeTelemetry(r, t); err != nil {
		return fmt.Errorf("telemetry probe: %w", err)
	}
	if err := probeCollector(r, t); err != nil {
		return fmt.Errorf("collector probe: %w", err)
	}
	if err := probeWireCodecs(r, t); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	if err := probeSimLayers(r); err != nil {
		return fmt.Errorf("simulator probe: %w", err)
	}
	return nil
}

// mallocs reads the cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeTelemetry times the probe codec on the fixture's own payloads.
func probeTelemetry(r *report, t *probeTrace) error {
	_, n := t.round(min(probeRounds, t.rounds) - 1)
	var p telemetry.ProbePayload
	var enc []byte
	const passes = 8
	var decode, encode time.Duration
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			err := telemetry.UnmarshalProbeInto(&p, t.payload(i))
			t1 := time.Now()
			if err != nil {
				return err
			}
			out, err := telemetry.AppendProbe(enc[:0], &p)
			t2 := time.Now()
			enc = out
			if err != nil {
				return err
			}
			if !bytes.Equal(enc, t.payload(i)) {
				return fmt.Errorf("probe %d does not re-encode to the bytes it was decoded from", i)
			}
			decode += t1.Sub(t0)
			encode += t2.Sub(t1)
		}
	}
	ops := passes * n
	r.set("telemetry.decode_ns_per_probe", float64(decode.Nanoseconds())/float64(ops), ops)
	r.set("telemetry.encode_ns_per_probe", float64(encode.Nanoseconds())/float64(ops), ops)
	r.set("telemetry.bytes_per_probe", float64(len(t.arena))/float64(t.probes()), t.probes())
	r.set("telemetry.records_per_probe", float64(t.records)/float64(t.probes()), t.probes())
	return nil
}

// traceClock is a collector clock that reads the arrival time of the probe
// being replayed.
type traceClock struct{ now time.Duration }

func (c *traceClock) read() time.Duration { return c.now }

// probeCollector replays the fixture's first rounds into a fresh collector
// and times ingest, the snapshot after each round, path walks and rankings.
func probeCollector(r *report, t *probeTrace) error {
	rounds := min(probeRounds, t.rounds)
	clock := &traceClock{}
	coll := collector.New(netsim.NodeID(t.sched), clock.read, collector.Config{QueueWindow: 2 * probeInterval})
	delay := &core.DelayRanker{}
	var p telemetry.ProbePayload
	var ingest time.Duration
	var allocs uint64
	var coldSnap, coldRank []float64
	var topo *collector.Topology
	epoch0 := coll.Epoch()
	timed := 0
	for round := 0; round < rounds; round++ {
		// The first round learns every stream and edge; the windows see the
		// steady state that follows, so only later rounds are timed.
		steady := round > 0
		lo, hi := t.round(round)
		m0 := mallocs()
		for i := lo; i < hi; i++ {
			if err := telemetry.UnmarshalProbeInto(&p, t.payload(i)); err != nil {
				return err
			}
			clock.now = time.Duration(t.at[i])
			t0 := time.Now()
			coll.HandleProbe(&p)
			if steady {
				ingest += time.Since(t0)
			}
		}
		if steady {
			allocs += mallocs() - m0
			timed += hi - lo
		}
		t0 := time.Now()
		topo = coll.Snapshot()
		coldSnap = append(coldSnap, float64(time.Since(t0).Nanoseconds())/1e3)
		for q := 0; q < 8; q++ {
			from := netsim.NodeID(t.origins[(round*8+q)%len(t.origins)])
			t0 := time.Now()
			ranked := core.ComputeRanking(topo, delay, from, 0)
			coldRank = append(coldRank, float64(time.Since(t0).Nanoseconds())/1e3)
			if len(ranked) != len(t.origins) {
				return fmt.Errorf("cold ranking from %s has %d candidates, want %d", from, len(ranked), len(t.origins))
			}
		}
	}
	_, n := t.round(rounds - 1)
	r.set("collector.ingest_ns_per_probe", float64(ingest.Nanoseconds())/float64(timed), timed)
	r.set("collector.ingest_allocs_per_probe", float64(allocs)/float64(timed), timed)
	r.set("collector.snapshot_cold_us_p50", median(coldSnap), len(coldSnap))
	r.set("collector.epochs_per_round", float64(coll.Epoch()-epoch0)/float64(rounds), rounds)
	st := coll.Stats()
	r.set("collector.probes_out_of_order", float64(st.ProbesOutOfOrder), n)
	r.set("collector.path_remaps", float64(st.PathRemaps), n)
	r.set("core.rank_cold_us", median(coldRank), len(coldRank))

	const warmCalls = 2000
	t0 := time.Now()
	for i := 0; i < warmCalls; i++ {
		if coll.Snapshot() != topo {
			return fmt.Errorf("snapshot changed without a probe")
		}
	}
	r.set("collector.snapshot_warm_ns", float64(time.Since(t0).Nanoseconds())/warmCalls, warmCalls)

	// Path walks between host pairs, into caller-owned scratch.
	hosts := topo.HostCount()
	var scratch []int32
	const walks = 20000
	t0 = time.Now()
	for i := 0; i < walks; i++ {
		src := topo.HostNodeIndex(i % hosts)
		dst := topo.HostNodeIndex((i*7 + 1) % hosts)
		path, code, _ := topo.PathInto(src, dst, scratch)
		if src != dst && code != collector.PathOK {
			return fmt.Errorf("no path from %s to %s: %v", topo.NodeName(src), topo.NodeName(dst), code)
		}
		scratch = path
	}
	r.set("collector.path_into_ns", float64(time.Since(t0).Nanoseconds())/walks, walks)

	// Warm rankings through the scheduler service's rank cache. The service
	// only needs a host stack to own; nothing is sent on it.
	nw := netsim.New(simtime.NewEngine())
	nw.AddHost(netsim.NodeID(t.sched))
	svc := core.NewService(transport.NewDomain(nw).Install(netsim.NodeID(t.sched)), coll, core.ServiceConfig{})
	svc.Register(delay)
	req := &core.QueryRequest{From: netsim.NodeID(t.origins[0]), Metric: core.MetricDelay, Sorted: true, Count: 8}
	if got := len(svc.RankOn(topo, req)); got != 8 {
		return fmt.Errorf("service ranking has %d candidates, want 8", got)
	}
	const warmRanks = 20000
	t0 = time.Now()
	for i := 0; i < warmRanks; i++ {
		svc.RankOn(topo, req)
	}
	r.set("core.rank_warm_ns", float64(time.Since(t0).Nanoseconds())/warmRanks, warmRanks)
	if cs := svc.CacheStats(); cs.Hits < warmRanks {
		return fmt.Errorf("warm rankings hit the cache %d times, want >= %d", cs.Hits, warmRanks)
	}
	return nil
}

// probeWireCodecs times the query framing and the overlay datagram codec
// without a socket.
func probeWireCodecs(r *report, t *probeTrace) error {
	req := wire.QueryRequest{From: t.origins[0], Metric: "delay", Count: 8, Sorted: true}
	resp := wire.QueryResponse{Metric: "delay"}
	for i := 0; i < 8; i++ {
		resp.Candidates = append(resp.Candidates, wire.CandidateInfo{
			Node: t.origins[i%len(t.origins)], DelayNs: int64(1_500_000 + i), BandwidthBps: 2e7, Hops: 6, Reachable: true,
		})
	}
	const frames = 5000
	var buf bytes.Buffer
	var reqTime, respTime time.Duration
	for i := 0; i < frames; i++ {
		buf.Reset()
		t0 := time.Now()
		err := wire.WriteFrame(&buf, &req)
		var back wire.QueryRequest
		if err == nil {
			err = wire.ReadFrame(&buf, &back)
		}
		t1 := time.Now()
		if err != nil {
			return err
		}
		err = wire.WriteFrame(&buf, &resp)
		size := buf.Len()
		var respBack wire.QueryResponse
		if err == nil {
			err = wire.ReadFrame(&buf, &respBack)
		}
		t2 := time.Now()
		if err != nil {
			return err
		}
		if back.From != req.From || len(respBack.Candidates) != len(resp.Candidates) {
			return fmt.Errorf("frame round trip lost fields")
		}
		reqTime += t1.Sub(t0)
		respTime += t2.Sub(t1)
		if i == 0 {
			r.set("wire.resp_bytes", float64(size), 1)
		}
	}
	r.set("wire.req_frame_ns", float64(reqTime.Nanoseconds())/frames, frames)
	r.set("wire.resp_frame_ns", float64(respTime.Nanoseconds())/frames, frames)

	_, n := t.round(0)
	var dgTime time.Duration
	for i := 0; i < n; i++ {
		dg := wire.Datagram{Kind: wire.KindProbe, TTL: wire.DefaultTTL, Src: t.origins[0], Dst: t.sched, Payload: t.payload(i)}
		t0 := time.Now()
		b, err := dg.Marshal()
		var back *wire.Datagram
		if err == nil {
			back, err = wire.UnmarshalDatagram(b)
		}
		dgTime += time.Since(t0)
		if err != nil {
			return err
		}
		if !bytes.Equal(back.Payload, t.payload(i)) {
			return fmt.Errorf("datagram round trip changed payload %d", i)
		}
	}
	r.set("wire.datagram_ns", float64(dgTime.Nanoseconds())/float64(n), n)
	return nil
}

// probeDialClose times opening and closing a TCP connection to addr, the
// fixed cost live.Query pays per query.
func probeDialClose(r *report, addr string) error {
	const dials = 500
	t0 := time.Now()
	for i := 0; i < dials; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		conn.Close()
	}
	r.set("wire.dial_close_us", float64(time.Since(t0).Microseconds())/dials, dials)
	return nil
}

// probeSimLayers times the simulator's layers bottom up: the event engine
// alone, packets crossing a chain of switches, the INT pipeline on a
// packet, and a reliable transfer.
func probeSimLayers(r *report) error {
	// Event engine: timers that re-arm themselves, nothing else.
	const events = 400_000
	engine := simtime.NewEngine()
	chain := &timerChain{engine: engine}
	for i := 0; i < 64; i++ {
		engine.After(time.Duration(i)*time.Microsecond, chain.fire)
	}
	t0 := time.Now()
	for engine.Processed < events && engine.Step() {
	}
	r.set("simtime.events_per_s", float64(engine.Processed)/time.Since(t0).Seconds(), int(engine.Processed))

	// Datagrams across eight switches at 1 Gb/s, no dataplane program.
	const packets, switches = 20_000, 8
	engine = simtime.NewEngine()
	topo, err := experiment.BuildLinear(engine, switches, experiment.LinkParams{RateBps: fabricRateBps, Delay: 100 * time.Microsecond})
	if err != nil {
		return err
	}
	sink := transport.NewDomain(topo.Net).InstallAll().Stack("h2")
	sender := &packetSender{nw: topo.Net, left: packets}
	engine.After(0, sender.send)
	t0 = time.Now()
	engine.Run(time.Hour)
	wall := time.Since(t0)
	if sink.DatagramsReceived != packets {
		return fmt.Errorf("chain delivered %d of %d datagrams", sink.DatagramsReceived, packets)
	}
	hops := packets * (switches + 1)
	r.set("netsim.ns_per_packet_hop", float64(wall.Nanoseconds())/float64(hops), hops)

	// The INT pipeline on a production packet: parse, ingress and egress
	// control, deparse.
	pipe := dataplane.NewPipeline(dataplane.NewINTProgram("s01", 4, dataplane.INTConfig{}))
	ctx := &netsim.ProcessorContext{Device: topo.Net.Node("s01"), InPort: 0, OutPort: 1, QueueLen: 3}
	pkt := topo.Net.NewPacket(netsim.KindData, "h1", "h2", 1000)
	const passes = 200_000
	t0 = time.Now()
	for i := 0; i < passes; i++ {
		pipe.Ingress(ctx, pkt)
		pipe.Egress(ctx, pkt)
	}
	r.set("dataplane.ns_per_packet", float64(time.Since(t0).Nanoseconds())/passes, passes)

	// One reliable transfer across a single switch.
	const megabytes = 4
	engine = simtime.NewEngine()
	bell, err := experiment.BuildDumbbell(engine, experiment.LinkParams{RateBps: fabricRateBps, Delay: 100 * time.Microsecond})
	if err != nil {
		return err
	}
	done := &transferDone{}
	transport.NewDomain(bell.Net).InstallAll().Stack("h1").Transfer("h2", megabytes<<20, done.finished)
	t0 = time.Now()
	engine.Run(time.Hour)
	wall = time.Since(t0)
	if done.stats.Bytes != megabytes<<20 {
		return fmt.Errorf("transfer completed %d of %d bytes", done.stats.Bytes, megabytes<<20)
	}
	r.set("transport.tcp_wall_ms_per_mb", float64(wall.Microseconds())/1e3/megabytes, megabytes)
	return nil
}

// timerChain re-arms a timer every time it fires.
type timerChain struct{ engine *simtime.Engine }

func (c *timerChain) fire() { c.engine.After(64*time.Microsecond, c.fire) }

// packetSender emits one datagram every 20 µs of simulated time until none
// are left.
type packetSender struct {
	nw   *netsim.Network
	left int
}

func (s *packetSender) send() {
	if s.left == 0 {
		return
	}
	s.left--
	_ = s.nw.Send(s.nw.NewPacket(netsim.KindDatagram, "h1", "h2", 1000)) // delivery is checked at the sink
	s.nw.Engine().After(20*time.Microsecond, s.send)
}

// transferDone records a completed transfer's statistics.
type transferDone struct{ stats transport.FlowStats }

func (d *transferDone) finished(st transport.FlowStats) { d.stats = st }
