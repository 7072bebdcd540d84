package dataplane

import (
	"reflect"
	"testing"
	"time"

	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
)

// buildChain returns h1 - s01 - s02 - h2 with INT attached.
func buildChain(t *testing.T, cfg INTConfig) (*netsim.Network, *simtime.Engine, map[netsim.NodeID]*INTProgram) {
	t.Helper()
	e := simtime.NewEngine()
	n := netsim.New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s01")
	n.AddSwitch("s02")
	link := netsim.LinkConfig{RateBps: 12_000_000, Delay: 10 * time.Millisecond}
	for _, pair := range [][2]netsim.NodeID{{"h1", "s01"}, {"s01", "s02"}, {"s02", "h2"}} {
		if _, err := n.Connect(pair[0], pair[1], link); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	progs := AttachINT(n, cfg)
	return n, e, progs
}

func sendProbe(n *netsim.Network, src, dst netsim.NodeID) *telemetry.ProbePayload {
	pkt := n.NewPacket(netsim.KindProbe, src, dst, telemetry.ProbePacketSize)
	pkt.Probe = &telemetry.ProbePayload{Origin: string(src), Seq: 1, SentAt: n.Now()}
	_ = n.Send(pkt)
	return pkt.Probe
}

func TestINTProbeCollectsRecordsInPathOrder(t *testing.T) {
	n, e, _ := buildChain(t, INTConfig{})
	var got *telemetry.ProbePayload
	n.Node("h2").Handler = func(p *netsim.Packet) { got = p.Probe }
	sendProbe(n, "h1", "h2")
	e.RunUntilIdle()
	if got == nil {
		t.Fatal("probe not delivered")
	}
	path := got.Stack.Path()
	if len(path) != 2 || path[0] != "s01" || path[1] != "s02" {
		t.Fatalf("INT path %v, want [s01 s02]", path)
	}
}

func TestINTLinkLatencyMeasurement(t *testing.T) {
	n, e, _ := buildChain(t, INTConfig{})
	var got *telemetry.ProbePayload
	n.Node("h2").Handler = func(p *netsim.Packet) { got = p.Probe }
	sendProbe(n, "h1", "h2")
	e.RunUntilIdle()
	// Each hop's link latency = serialization (1500B @ 12Mbps = 1ms) +
	// propagation (10ms) = 11ms; the first record measures the host link
	// because hosts stamp outgoing probes.
	for i, rec := range got.Stack.Records {
		if rec.LinkLatency < 10*time.Millisecond || rec.LinkLatency > 12*time.Millisecond {
			t.Errorf("record %d link latency %v, want ≈11ms", i, rec.LinkLatency)
		}
	}
}

func TestINTRegisterStagingAndFlush(t *testing.T) {
	n, e, progs := buildChain(t, INTConfig{})
	// Push data packets through so s01/s02 see queue occupancy.
	for i := 0; i < 20; i++ {
		_ = n.Send(n.NewPacket(netsim.KindData, "h1", "h2", 1500))
	}
	e.RunUntilIdle()

	s01 := progs["s01"]
	port := n.Node("s01").PortTo("s02")
	if s01.maxQueue[port] == 0 {
		t.Fatal("max_queue register not updated by data packets")
	}
	if cnt := s01.pktCount[port]; cnt != 20 {
		t.Fatalf("pkt_count=%d, want 20", cnt)
	}

	// A probe flushes and resets the registers.
	var got *telemetry.ProbePayload
	n.Node("h2").Handler = func(p *netsim.Packet) { got = p.Probe }
	sendProbe(n, "h1", "h2")
	e.RunUntilIdle()
	rec := got.Stack.Records[0]
	if q, ok := rec.MaxQueueFor(port); !ok || q == 0 {
		t.Fatalf("probe did not carry flushed queue: %d,%v", q, ok)
	}
	if s01.maxQueue[port] != 0 || s01.pktCount[port] != 0 {
		t.Fatal("registers not reset after flush")
	}
}

func TestINTProductionPacketsNeverModified(t *testing.T) {
	n, e, _ := buildChain(t, INTConfig{})
	var delivered *netsim.Packet
	n.Node("h2").Handler = func(p *netsim.Packet) { delivered = p }
	pkt := n.NewPacket(netsim.KindData, "h1", "h2", 1500)
	_ = n.Send(pkt)
	e.RunUntilIdle()
	if delivered == nil {
		t.Fatal("not delivered")
	}
	if delivered.Probe != nil {
		t.Fatal("data packet grew a telemetry payload")
	}
	if delivered.Size != 1500 {
		t.Fatalf("data packet size changed: %d", delivered.Size)
	}
	if _, ok := delivered.TakeEgressStamp(); ok {
		t.Fatal("data packet carries an egress stamp")
	}
}

func TestINTProbesExcludedFromQueueStatsByDefault(t *testing.T) {
	n, e, progs := buildChain(t, INTConfig{})
	n.Node("h2").Handler = func(p *netsim.Packet) {}
	sendProbe(n, "h1", "h2")
	e.RunUntilIdle()
	port := n.Node("s01").PortTo("s02")
	if cnt := progs["s01"].pktCount[port]; cnt != 0 {
		t.Fatalf("probe counted in pkt_count: %d", cnt)
	}
}

// TestDroppedProbesLeaveNoState: a probe dropped between a switch's ingress
// and egress stages (full egress queue, downed egress link) takes its ingress
// measurement with it, so the program ends as a fresh one would.
func TestDroppedProbesLeaveNoState(t *testing.T) {
	e := simtime.NewEngine()
	n := netsim.New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s01")
	n.AddSwitch("s02")
	fast := netsim.LinkConfig{RateBps: 1_000_000_000, Delay: time.Millisecond}
	narrow := netsim.LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond, QueueCap: 2}
	_, _ = n.Connect("h1", "s01", fast)
	_, _ = n.Connect("s01", "s02", narrow)
	_, _ = n.Connect("s02", "h2", fast)
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	progs := AttachINT(n, INTConfig{})
	delivered := 0
	n.Node("h2").Handler = func(*netsim.Packet) { delivered++ }
	egress := n.Node("s01").Ports[n.Node("s01").PortTo("s02")]

	for i := 0; i < 20; i++ {
		sendProbe(n, "h1", "h2")
	}
	e.RunUntilIdle()
	full := egress.Drops
	if full == 0 || delivered == 0 {
		t.Fatalf("want some probes dropped at the full queue and some delivered: drops=%d delivered=%d", full, delivered)
	}

	if err := n.SetLinkUp("s01", "s02", false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sendProbe(n, "h1", "h2")
	}
	e.RunUntilIdle()
	if egress.Drops != full+5 {
		t.Fatalf("downed link dropped %d probes, want 5", egress.Drops-full)
	}

	if got, want := progs["s01"], NewINTProgram("s01", 2, INTConfig{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("s01 keeps state for dropped probes: %+v, want %+v", got, want)
	}
}

func TestINTClockSkewClampsNegativeLatency(t *testing.T) {
	// Give s02 a clock 30 ms behind: link latency measured at s02 would be
	// 11ms - 30ms < 0 and must clamp to zero rather than go negative.
	e := simtime.NewEngine()
	n := netsim.New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s01")
	n.AddSwitch("s02")
	link := netsim.LinkConfig{RateBps: 12_000_000, Delay: 10 * time.Millisecond}
	for _, pair := range [][2]netsim.NodeID{{"h1", "s01"}, {"s01", "s02"}, {"s02", "h2"}} {
		_, _ = n.Connect(pair[0], pair[1], link)
	}
	_ = n.ComputeRoutes()
	s01 := n.Node("s01")
	s01.Processor = NewINTProgram("s01", len(s01.Ports), INTConfig{})
	s02 := n.Node("s02")
	s02.Processor = NewINTProgram("s02", len(s02.Ports), INTConfig{ClockSkew: -30 * time.Millisecond})

	var got *telemetry.ProbePayload
	n.Node("h2").Handler = func(p *netsim.Packet) { got = p.Probe }
	sendProbe(n, "h1", "h2")
	e.RunUntilIdle()
	if got.Stack.Records[1].LinkLatency != 0 {
		t.Fatalf("skewed link latency %v, want clamped 0", got.Stack.Records[1].LinkLatency)
	}
}

func TestINTHopLatencyReflectsQueueing(t *testing.T) {
	// Fast host uplink so the burst reaches s01 unsmoothed and queues at
	// the slow switch egress (the paper's bottleneck placement).
	e := simtime.NewEngine()
	n := netsim.New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s01")
	n.AddSwitch("s02")
	slow := netsim.LinkConfig{RateBps: 12_000_000, Delay: 10 * time.Millisecond}
	fastUp := netsim.LinkConfig{RateBps: 1_000_000_000, ReverseRateBps: 12_000_000, Delay: 10 * time.Millisecond}
	_, _ = n.Connect("h1", "s01", fastUp)
	_, _ = n.Connect("s01", "s02", slow)
	_, _ = n.Connect("h2", "s02", fastUp)
	_ = n.ComputeRoutes()
	AttachINT(n, INTConfig{})
	var got *telemetry.ProbePayload
	n.Node("h2").Handler = func(p *netsim.Packet) {
		if p.Kind == netsim.KindProbe {
			got = p.Probe
		}
	}
	// Fill s01's egress queue toward s02, then send the probe behind it.
	for i := 0; i < 10; i++ {
		_ = n.Send(n.NewPacket(netsim.KindData, "h1", "h2", 1500))
	}
	sendProbe(n, "h1", "h2")
	e.RunUntilIdle()
	// The probe queued behind ~9-10 data packets at 1 ms each at s01.
	hop := got.Stack.Records[0].HopLatency
	if hop < 5*time.Millisecond {
		t.Fatalf("hop latency %v, want ≥5ms of queueing", hop)
	}
}

func TestPerPacketModeEmbedsInDataPackets(t *testing.T) {
	n, e, progs := buildChain(t, INTConfig{PerPacket: true})
	var got *netsim.Packet
	n.Node("h2").Handler = func(p *netsim.Packet) { got = p }
	pkt := n.NewPacket(netsim.KindData, "h1", "h2", 1500)
	_ = n.Send(pkt)
	e.RunUntilIdle()
	if got == nil || got.Probe == nil {
		t.Fatal("data packet carries no embedded INT")
	}
	if len(got.Probe.Stack.Records) != 2 {
		t.Fatalf("records %d, want 2 (one per switch)", len(got.Probe.Stack.Records))
	}
	if got.Probe.Origin != "h1" || got.Probe.Target != "h2" {
		t.Fatalf("origin/target %q/%q", got.Probe.Origin, got.Probe.Target)
	}
	// The wire size grew by two per-hop reports.
	if got.Size != 1500+2*DefaultPerHopBytes {
		t.Fatalf("size %d, want %d", got.Size, 1500+2*DefaultPerHopBytes)
	}
	if progs["s01"].OverheadBytes != DefaultPerHopBytes {
		t.Fatalf("s01 overhead %d", progs["s01"].OverheadBytes)
	}
}

func TestPerPacketModeLeavesProbesAlone(t *testing.T) {
	n, e, _ := buildChain(t, INTConfig{PerPacket: true})
	var got *telemetry.ProbePayload
	n.Node("h2").Handler = func(p *netsim.Packet) {
		if p.Kind == netsim.KindProbe {
			got = p.Probe
		}
	}
	sendProbe(n, "h1", "h2")
	e.RunUntilIdle()
	if got == nil || len(got.Stack.Records) != 2 {
		t.Fatal("probes must still work in per-packet mode")
	}
}

func TestPerPacketINTOverheadMatchesPaperExample(t *testing.T) {
	// Paper: two INT fields over five switches consume 4.2% of payload.
	got := PerPacketINTOverhead(5, 2, 4, 1000)
	if got < 0.040 || got > 0.045 {
		t.Fatalf("overhead %.4f, want ≈0.042", got)
	}
	if PerPacketINTOverhead(100, 10, 4, 1000) != 1 {
		t.Fatal("saturated overhead not clamped to 1")
	}
	if PerPacketINTOverhead(1, 1, 1, 0) != 0 {
		t.Fatal("zero packet size not handled")
	}
}
