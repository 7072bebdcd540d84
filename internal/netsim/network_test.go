package netsim

import (
	"slices"
	"testing"
	"time"

	"intsched/internal/simtime"
)

// buildLine returns h1 - s1 - h2 with the given link config.
func buildLine(t *testing.T, cfg LinkConfig) (*Network, *simtime.Engine) {
	t.Helper()
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s1")
	if _, err := n.Connect("h1", "s1", cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("s1", "h2", cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return n, e
}

func TestDeliveryTiming(t *testing.T) {
	// 1500B at 12 Mbps = 1 ms serialization; 10 ms propagation per link.
	cfg := LinkConfig{RateBps: 12_000_000, Delay: 10 * time.Millisecond}
	n, e := buildLine(t, cfg)
	var deliveredAt time.Duration
	n.Node("h2").Handler = func(p *Packet) { deliveredAt = e.Now() }
	pkt := n.NewPacket(KindData, "h1", "h2", 1500)
	if err := n.Send(pkt); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	// h1 tx (1ms) + prop (10ms) + s1 tx (1ms) + prop (10ms) = 22ms.
	want := 22 * time.Millisecond
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
	if n.Delivered != 1 {
		t.Fatalf("Delivered=%d", n.Delivered)
	}
}

func TestAsymmetricRates(t *testing.T) {
	// h1 egresses at 120 Mbps (0.1 ms/pkt), s1 egresses at 12 Mbps (1 ms).
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s1")
	if _, err := n.Connect("h1", "s1", LinkConfig{RateBps: 120_000_000, ReverseRateBps: 12_000_000, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("s1", "h2", LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	var at time.Duration
	n.Node("h2").Handler = func(p *Packet) { at = e.Now() }
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	// 0.1ms + 1ms + 1ms + 1ms = 3.1ms.
	want := 3100 * time.Microsecond
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestQueueBuildsAtSlowEgress(t *testing.T) {
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s1")
	// Fast ingress, slow egress.
	_, _ = n.Connect("h1", "s1", LinkConfig{RateBps: 1_000_000_000, Delay: time.Millisecond})
	_, _ = n.Connect("s1", "h2", LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond, QueueCap: 100})
	_ = n.ComputeRoutes()
	for i := 0; i < 10; i++ {
		_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	}
	e.RunUntilIdle()
	port := n.Node("s1").Ports[n.Node("s1").PortTo("h2")]
	if port.MaxQueueEver < 8 {
		t.Fatalf("slow egress queue max %d, want ≥8", port.MaxQueueEver)
	}
	if n.Delivered != 10 {
		t.Fatalf("delivered %d", n.Delivered)
	}
}

func TestDropTailWhenQueueFull(t *testing.T) {
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s1")
	_, _ = n.Connect("h1", "s1", LinkConfig{RateBps: 1_000_000_000, Delay: time.Microsecond})
	_, _ = n.Connect("s1", "h2", LinkConfig{RateBps: 1_000_000, Delay: time.Microsecond, QueueCap: 4})
	_ = n.ComputeRoutes()
	var drops []DropReason
	n.OnDrop = func(p *Packet, at *Node, r DropReason) { drops = append(drops, r) }
	for i := 0; i < 20; i++ {
		_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	}
	e.RunUntilIdle()
	if len(drops) == 0 {
		t.Fatal("no drops with a 4-packet queue and 20-packet burst")
	}
	for _, r := range drops {
		if r != DropQueueFull {
			t.Fatalf("unexpected drop reason %v", r)
		}
	}
	if n.Delivered+n.Dropped != 20 {
		t.Fatalf("delivered %d + dropped %d != 20", n.Delivered, n.Dropped)
	}
}

func TestLocalDelivery(t *testing.T) {
	cfg := LinkConfig{RateBps: 1_000_000, Delay: time.Millisecond}
	n, e := buildLine(t, cfg)
	got := false
	n.Node("h1").Handler = func(p *Packet) { got = true }
	_ = n.Send(n.NewPacket(KindControl, "h1", "h1", 100))
	e.RunUntilIdle()
	if !got {
		t.Fatal("self-addressed packet not delivered")
	}
	if e.Now() != 0 {
		t.Fatalf("local delivery consumed time: %v", e.Now())
	}
}

func TestSendValidation(t *testing.T) {
	cfg := LinkConfig{RateBps: 1_000_000, Delay: time.Millisecond}
	n, _ := buildLine(t, cfg)
	if err := n.Send(n.NewPacket(KindData, "nope", "h2", 100)); err == nil {
		t.Error("unknown source accepted")
	}
	if err := n.Send(n.NewPacket(KindData, "h1", "nope", 100)); err == nil {
		t.Error("unknown destination accepted")
	}
	if err := n.Send(n.NewPacket(KindData, "s1", "h2", 100)); err == nil {
		t.Error("switch as source accepted")
	}
	p := n.NewPacket(KindData, "h1", "h2", 0)
	if err := n.Send(p); err == nil {
		t.Error("zero-size packet accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s1")
	if _, err := n.Connect("h1", "h1", LinkConfig{RateBps: 1}); err == nil {
		t.Error("self-link accepted")
	}
	if _, err := n.Connect("h1", "s1", LinkConfig{RateBps: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := n.Connect("h1", "s1", LinkConfig{RateBps: 1, Delay: -time.Second}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := n.Connect("h1", "s1", LinkConfig{RateBps: 1, ReverseRateBps: -1}); err == nil {
		t.Error("negative reverse rate accepted")
	}
	if _, err := n.Connect("h1", "s1", LinkConfig{RateBps: 1, QueueCap: -1}); err == nil {
		t.Error("negative queue capacity accepted")
	}
	if _, err := n.Connect("h1", "s1", LinkConfig{RateBps: 1}); err != nil {
		t.Fatalf("valid connect failed: %v", err)
	}
	if _, err := n.Connect("h1", "s1", LinkConfig{RateBps: 1}); err == nil {
		t.Error("second host uplink accepted")
	}
	if _, err := n.Connect("x", "s1", LinkConfig{RateBps: 1}); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	n.AddSwitch("h1")
}

func TestRoutingShortestPathDeterministic(t *testing.T) {
	// Diamond: h1-s1, s1-s2, s1-s3, s2-s4, s3-s4, s4-h2. Two equal paths;
	// lexicographic tie-break must pick s2 over s3.
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	for _, s := range []NodeID{"s1", "s2", "s3", "s4"} {
		n.AddSwitch(s)
	}
	cfg := LinkConfig{RateBps: 1_000_000, Delay: time.Millisecond}
	for _, pair := range [][2]NodeID{{"h1", "s1"}, {"s1", "s2"}, {"s1", "s3"}, {"s2", "s4"}, {"s3", "s4"}, {"s4", "h2"}} {
		if _, err := n.Connect(pair[0], pair[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	path, err := n.PathBetween("h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{"h1", "s1", "s2", "s4", "h2"}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
	if hops, _ := n.HopCount("h1", "h2"); hops != 4 {
		t.Fatalf("hops=%d, want 4", hops)
	}
}

func TestHostsDoNotForwardTransit(t *testing.T) {
	// h1 - s1 - hMid - s2 - h2: the only "path" runs through host hMid,
	// which must not forward, so h1 cannot reach h2.
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("hMid")
	n.AddHost("h2")
	n.AddSwitch("s1")
	n.AddSwitch("s2")
	cfg := LinkConfig{RateBps: 1_000_000, Delay: time.Millisecond}
	// hMid would need two ports; hosts are single-homed, so connect via
	// two switches that only meet at hMid is impossible by construction.
	// Instead verify PathBetween fails for a disconnected pair.
	_, _ = n.Connect("h1", "s1", cfg)
	_, _ = n.Connect("hMid", "s2", cfg)
	_, _ = n.Connect("h2", "s2", cfg)
	_ = n.ComputeRoutes()
	if _, err := n.PathBetween("h1", "h2"); err == nil {
		t.Fatal("found path across disconnected components")
	}
	// h2 and hMid share s2.
	if hops, err := n.HopCount("h2", "hMid"); err != nil || hops != 2 {
		t.Fatalf("hops=%d err=%v, want 2", hops, err)
	}
}

func TestTTLDrop(t *testing.T) {
	cfg := LinkConfig{RateBps: 1_000_000_000, Delay: time.Microsecond}
	n, e := buildLine(t, cfg)
	var reason DropReason
	dropped := false
	n.OnDrop = func(p *Packet, at *Node, r DropReason) { dropped, reason = true, r }
	pkt := n.NewPacket(KindData, "h1", "h2", 100)
	pkt.TTL = 1
	_ = n.Send(pkt)
	e.RunUntilIdle()
	if !dropped || reason != DropTTL {
		t.Fatalf("dropped=%v reason=%v, want TTL drop", dropped, reason)
	}
}

func TestEgressStampRoundTrip(t *testing.T) {
	p := &Packet{}
	if _, ok := p.TakeEgressStamp(); ok {
		t.Fatal("stamp present on fresh packet")
	}
	p.StampEgress(5 * time.Second)
	ts, ok := p.TakeEgressStamp()
	if !ok || ts != 5*time.Second {
		t.Fatalf("got %v,%v", ts, ok)
	}
	if _, ok := p.TakeEgressStamp(); ok {
		t.Fatal("stamp not cleared after take")
	}
}

func TestNodeAccessors(t *testing.T) {
	cfg := LinkConfig{RateBps: 1_000_000, Delay: time.Millisecond}
	n, _ := buildLine(t, cfg)
	s1 := n.Node("s1")
	if s1.PortTo("h1") < 0 || s1.PortTo("h2") < 0 {
		t.Fatal("PortTo failed for neighbors")
	}
	if s1.PortTo("nope") != -1 {
		t.Fatal("PortTo found nonexistent neighbor")
	}
	nb := s1.Neighbors()
	if len(nb) != 2 {
		t.Fatalf("neighbors %v", nb)
	}
	if len(n.Hosts()) != 2 || len(n.Switches()) != 1 || len(n.Nodes()) != 3 {
		t.Fatal("node listing wrong")
	}
	if len(n.Links()) != 2 {
		t.Fatal("links listing wrong")
	}
	if got := n.Node("h1").Kind.String(); got != "host" {
		t.Fatalf("kind string %q", got)
	}
}

func TestPacketKindStrings(t *testing.T) {
	kinds := []PacketKind{KindData, KindAck, KindProbe, KindPingReq, KindPingResp, KindControl, KindDatagram}
	want := []string{"data", "ack", "probe", "ping-req", "ping-resp", "control", "datagram"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
	if PacketKind(200).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	cfg := LinkConfig{RateBps: 1_000_000, Delay: time.Millisecond, QueueCap: 64}
	n, e := buildLine(t, cfg)
	var got []int64
	n.Node("h2").Handler = func(p *Packet) { got = append(got, p.Seq) }
	for i := 0; i < 30; i++ {
		p := n.NewPacket(KindData, "h1", "h2", 1500)
		p.Seq = int64(i)
		_ = n.Send(p)
	}
	e.RunUntilIdle()
	if len(got) != 30 {
		t.Fatalf("delivered %d", len(got))
	}
	for i, s := range got {
		if s != int64(i) {
			t.Fatalf("reordered: %v", got)
		}
	}
}

func TestTransientPacketRecycling(t *testing.T) {
	cfg := LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond}
	n, e := buildLine(t, cfg)
	var got []uint64
	n.Node("h2").Handler = func(p *Packet) { got = append(got, p.ID) }

	// Sequential transient sends: after the first delivery, every NewPacket
	// reuses the recycled node but still gets a fresh ID and clean fields.
	for i := 0; i < 5; i++ {
		pkt := n.NewPacket(KindDatagram, "h1", "h2", 500).MarkTransient()
		if pkt.TTL != DefaultTTL || pkt.Payload != nil || pkt.Probe != nil || pkt.hops != 0 {
			t.Fatalf("reused packet not reset: %+v", pkt)
		}
		if err := n.Send(pkt); err != nil {
			t.Fatal(err)
		}
		e.RunUntilIdle()
	}
	if len(got) != 5 {
		t.Fatalf("delivered %d packets, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("packet IDs not strictly increasing: %v", got)
		}
	}
	if n.PacketsRecycled != 4 {
		t.Fatalf("PacketsRecycled=%d, want 4", n.PacketsRecycled)
	}

	// Non-transient packets are never recycled.
	for i := 0; i < 3; i++ {
		if err := n.Send(n.NewPacket(KindProbe, "h1", "h2", 500)); err != nil {
			t.Fatal(err)
		}
		e.RunUntilIdle()
	}
	// The free list was drained by the first probe's NewPacket; the probes
	// themselves must not refill it.
	if len(n.freePkts) != 0 {
		t.Fatalf("non-transient packets were recycled: free list %d", len(n.freePkts))
	}
}

func TestTransientPacketRecycledOnDrop(t *testing.T) {
	cfg := LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond}
	n, e := buildLine(t, cfg)
	pkt := n.NewPacket(KindDatagram, "h1", "h3", 500).MarkTransient()
	pkt.Dst = "nowhere"
	if err := n.Send(pkt); err == nil {
		// Unknown destination is a Send error, not a drop; use a routeless
		// but known destination instead.
		t.Fatal("expected send error for unknown destination")
	}
	// Known node without a route: host h1 -> h1's own switch has routes to
	// all hosts here, so force a TTL drop instead.
	p2 := n.NewPacket(KindDatagram, "h1", "h2", 500).MarkTransient()
	p2.TTL = 1 // decremented to 0 at s1 -> dropped
	if err := n.Send(p2); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	if n.Dropped != 1 {
		t.Fatalf("Dropped=%d, want 1", n.Dropped)
	}
	if len(n.freePkts) != 1 {
		t.Fatalf("dropped transient packet not recycled: free list %d", len(n.freePkts))
	}
}

// TestPacketRingWrapsInFIFOOrder interleaves pushes and pops so the ring's
// head and tail wrap at every size it grows through, and checks the order
// against a plain slice and the ring's size against its limit.
func TestPacketRingWrapsInFIFOOrder(t *testing.T) {
	const limit = 12
	var r packetRing
	var want []*Packet
	rng := simtime.NewRand(3)
	for step := 0; step < 2000; step++ {
		if r.n < limit && (r.n == 0 || rng.Intn(5) < 3) {
			pkt := &Packet{ID: uint64(step)}
			r.push(pkt, limit)
			want = append(want, pkt)
		} else {
			got := r.pop()
			if got != want[0] {
				t.Fatalf("step %d: popped pkt#%d, want pkt#%d", step, got.ID, want[0].ID)
			}
			want = want[1:]
		}
		if r.n != len(want) || len(r.buf) > limit {
			t.Fatalf("step %d: ring holds %d in %d slots, want %d in at most %d", step, r.n, len(r.buf), len(want), limit)
		}
	}
	if len(r.buf) != limit {
		t.Fatalf("ring grew to %d slots, want the limit %d", len(r.buf), limit)
	}
}

// TestDropTailAtQueueCapAfterGrowth paces arrivals at 1.5x a slow egress so
// its queue grows past the ring's initial 4 slots to QueueCap 6, wraps as the
// head advances, and then drops: every drop is queue-full with exactly
// QueueCap packets queued, and deliveries stay in send order.
func TestDropTailAtQueueCapAfterGrowth(t *testing.T) {
	const queueCap, sends = 6, 40
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s1")
	_, _ = n.Connect("h1", "s1", LinkConfig{RateBps: 1_000_000_000, Delay: time.Microsecond})
	_, _ = n.Connect("s1", "h2", LinkConfig{RateBps: 1_000_000, Delay: time.Microsecond, QueueCap: queueCap}) // 12 ms per packet
	_ = n.ComputeRoutes()
	egress := n.Node("s1").Ports[n.Node("s1").PortTo("h2")]
	var got []int64
	n.Node("h2").Handler = func(p *Packet) { got = append(got, p.Seq) }
	n.OnDrop = func(p *Packet, at *Node, r DropReason) {
		if r != DropQueueFull || egress.queue.n != queueCap {
			t.Errorf("pkt seq %d dropped (%v) with %d queued, want queue-full at %d", p.Seq, r, egress.queue.n, queueCap)
		}
	}
	for i := 0; i < sends; i++ {
		e.At(time.Duration(i)*8*time.Millisecond, func() {
			p := n.NewPacket(KindData, "h1", "h2", 1500)
			p.Seq = int64(i)
			_ = n.Send(p)
		})
	}
	e.RunUntilIdle()
	if n.Dropped == 0 || n.Delivered+n.Dropped != sends {
		t.Fatalf("delivered %d + dropped %d, want some drops of %d", n.Delivered, n.Dropped, sends)
	}
	if egress.MaxQueueEver != queueCap+1 || len(egress.queue.buf) != queueCap {
		t.Fatalf("max occupancy %d in %d ring slots, want %d in %d", egress.MaxQueueEver, len(egress.queue.buf), queueCap+1, queueCap)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("reordered: %v", got)
		}
	}
}

// buildWire returns h1 - h2 on one link, with a Handler on h2 that records
// each delivered packet's Seq and landing time.
func buildWire(t *testing.T, cfg LinkConfig) (*Network, *simtime.Engine, *[]arrival) {
	t.Helper()
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	if _, err := n.Connect("h1", "h2", cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	got := new([]arrival)
	n.Node("h2").Handler = func(p *Packet) { *got = append(*got, arrival{p.Seq, e.Now()}) }
	return n, e, got
}

type arrival struct {
	seq int64
	at  time.Duration
}

// sendSeqs sends 1500 B packets numbered first..last from h1 to h2.
func sendSeqs(t *testing.T, n *Network, first, last int64) {
	t.Helper()
	for seq := first; seq <= last; seq++ {
		p := n.NewPacket(KindData, "h1", "h2", 1500)
		p.Seq = seq
		if err := n.Send(p); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOneEventPerBusyWire: 50 back-to-back packets on a slow, long link are
// all in flight at once, but the engine holds at most the wire's head and the
// next serialization; each packet still lands at departure + delay, in
// departure order.
func TestOneEventPerBusyWire(t *testing.T) {
	const packets = 50
	// 1500 B at 12 Mb/s: packet i departs at i ms and lands 100 ms later.
	n, e, got := buildWire(t, LinkConfig{RateBps: 12_000_000, Delay: 100 * time.Millisecond, QueueCap: packets})
	sendSeqs(t, n, 1, packets)
	port := n.Node("h1").Ports[0]
	maxPending, inFlight := 0, 0
	// A ticker is not pending while its fn runs, so Pending counts only
	// the network's events.
	tk := e.NewTicker(time.Millisecond, func() {
		maxPending = max(maxPending, e.Pending())
		if e.Now() == 75*time.Millisecond {
			inFlight = int(port.TxPackets) - len(*got)
		}
	})
	e.Run(100 * time.Millisecond)
	tk.Stop()
	e.RunUntilIdle()
	if inFlight != packets {
		t.Fatalf("%d packets in flight at 75 ms, want all %d", inFlight, packets)
	}
	if maxPending > 2 {
		t.Fatalf("%d events pending with up to %d packets on the wire, want at most the wire's head and one serialization", maxPending, packets)
	}
	if len(*got) != packets {
		t.Fatalf("delivered %d of %d", len(*got), packets)
	}
	for i, a := range *got {
		want := arrival{int64(i + 1), time.Duration(i+1)*time.Millisecond + 100*time.Millisecond}
		if a != want {
			t.Fatalf("arrival %d = %v, want %v", i, a, want)
		}
	}
}

// TestRaisedDelayKeepsWireInOrder: packets that depart after SetLinkDelay
// raises the delay land after every packet ahead of them, so they join the
// wire's FIFO: the engine still holds one landing for the whole wire.
func TestRaisedDelayKeepsWireInOrder(t *testing.T) {
	n, e, got := buildWire(t, LinkConfig{RateBps: 12_000_000, Delay: 10 * time.Millisecond})
	sendSeqs(t, n, 1, 6)
	maxPending := 0
	var tk *simtime.Ticker
	e.At(3500*time.Microsecond, func() {
		_ = n.SetLinkDelay("h1", "h2", 20*time.Millisecond)
		tk = e.NewTicker(time.Millisecond, func() { maxPending = max(maxPending, e.Pending()) })
	})
	e.Run(30 * time.Millisecond)
	tk.Stop()
	e.RunUntilIdle()
	var want []arrival
	for seq := int64(1); seq <= 6; seq++ {
		delay := 10 * time.Millisecond
		if seq > 3 {
			delay = 20 * time.Millisecond
		}
		want = append(want, arrival{seq, time.Duration(seq)*time.Millisecond + delay})
	}
	if !slices.Equal(*got, want) {
		t.Fatalf("arrivals %v, want %v", *got, want)
	}
	if maxPending > 2 {
		t.Fatalf("%d events pending, want at most the wire's head and one serialization", maxPending)
	}
}

// TestLowerDelayLetsLaterPacketOvertake: propagation is per packet, so a
// packet that departs after SetLinkDelay lowers the delay lands before one
// still crossing the wire at the old delay, on its own event. Raising the
// delay again puts the next packet behind the wire's tail, in the FIFO; it
// lands at the tail's instant, after it by sequence.
func TestLowerDelayLetsLaterPacketOvertake(t *testing.T) {
	// 1500 B at 12 Mb/s: 1 ms serialization.
	n, e, got := buildWire(t, LinkConfig{RateBps: 12_000_000, Delay: 10 * time.Millisecond})
	sendSeqs(t, n, 1, 3)
	port := n.Node("h1").Ports[0]
	// Packet 1 departs at 1 ms on the 10 ms wire; packet 2 departs at 2 ms
	// on a 2 ms one; packet 3 departs at 3 ms on an 8 ms one, landing with
	// packet 1.
	e.At(1500*time.Microsecond, func() { _ = n.SetLinkDelay("h1", "h2", 2*time.Millisecond) })
	e.At(2500*time.Microsecond, func() { _ = n.SetLinkDelay("h1", "h2", 8*time.Millisecond) })
	e.At(3500*time.Microsecond, func() {
		// Packet 1's landing heads the wire with packet 3 behind it, not
		// queued; packet 2's is its own event.
		if tail := port.wireTail; tail == nil || tail.Seq != 3 || e.Pending() != 2 {
			t.Errorf("wire tail %v with %d events pending, want packet 3 and two landings", tail, e.Pending())
		}
	})
	e.RunUntilIdle()
	want := []arrival{{2, 4 * time.Millisecond}, {1, 11 * time.Millisecond}, {3, 11 * time.Millisecond}}
	if !slices.Equal(*got, want) {
		t.Fatalf("arrivals %v, want %v", *got, want)
	}
	if port.wireTail != nil {
		t.Fatalf("wire not empty after the last landing: tail %v", port.wireTail)
	}
}

// TestLinkDownDropsEveryPacketOnTheWire: a flap kills all the packets
// crossing the wire, each at its own landing time, though the link is up
// again before the first of them lands.
func TestLinkDownDropsEveryPacketOnTheWire(t *testing.T) {
	const packets = 5
	n, e, got := buildWire(t, LinkConfig{RateBps: 12_000_000, Delay: 100 * time.Millisecond})
	sendSeqs(t, n, 1, packets)
	var drops []arrival
	n.OnDrop = func(p *Packet, at *Node, r DropReason) {
		if r != DropLinkDown || at.ID != "h2" {
			t.Errorf("packet %d dropped at %s (%v), want link-down at h2", p.Seq, at.ID, r)
		}
		drops = append(drops, arrival{p.Seq, e.Now()})
	}
	e.At(10*time.Millisecond, func() { _ = n.SetLinkUp("h1", "h2", false) })
	e.At(11*time.Millisecond, func() { _ = n.SetLinkUp("h1", "h2", true) })
	e.RunUntilIdle()
	var want []arrival
	for seq := int64(1); seq <= packets; seq++ {
		want = append(want, arrival{seq, time.Duration(seq)*time.Millisecond + 100*time.Millisecond})
	}
	if len(*got) != 0 || !slices.Equal(drops, want) {
		t.Fatalf("delivered %v, dropped %v; want every packet dropped as it lands: %v", *got, drops, want)
	}
}

// TestWirePacketRecycledClean: a transient packet from the middle of a wire
// lands with no link to the packet behind it, so the free list never hands
// out a packet still chained into a wire.
func TestWirePacketRecycledClean(t *testing.T) {
	n, e, got := buildWire(t, LinkConfig{RateBps: 12_000_000, Delay: 10 * time.Millisecond})
	var middle *Packet
	for seq := int64(1); seq <= 3; seq++ {
		p := n.NewPacket(KindData, "h1", "h2", 1500)
		p.Seq = seq
		if seq == 2 {
			middle = p.MarkTransient()
		}
		_ = n.Send(p)
	}
	e.At(5*time.Millisecond, func() {
		if middle.wireNext == nil || middle.wireNext.Seq != 3 {
			t.Errorf("packet 2 is not chained to packet 3 on the wire")
		}
	})
	e.RunUntilIdle()
	if len(n.freePkts) != 1 || n.freePkts[0] != middle {
		t.Fatalf("free list %v, want packet 2 alone", n.freePkts)
	}
	if middle.wireNext != nil || middle.wire != nil {
		t.Fatalf("recycled packet still on a wire: next %v, wire %v", middle.wireNext, middle.wire)
	}
	reused := n.NewPacket(KindData, "h1", "h2", 1500)
	reused.Seq = 4
	if reused != middle {
		t.Fatal("NewPacket did not reuse the recycled packet")
	}
	_ = n.Send(reused)
	e.RunUntilIdle()
	if len(*got) != 4 || (*got)[3].seq != 4 || e.Pending() != 0 {
		t.Fatalf("arrivals %v with %d events pending, want packet 4 landed once", *got, e.Pending())
	}
}
