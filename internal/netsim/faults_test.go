package netsim

import (
	"testing"
	"time"

	"intsched/internal/simtime"
)

// buildDiamond returns h1-s1, s1-s2, s1-s3, s2-s4, s3-s4, s4-h2 with routes
// installed: two equal-cost switch paths, lexicographic tie-break picks s2.
func buildDiamond(t *testing.T, cfg LinkConfig) (*Network, *simtime.Engine) {
	t.Helper()
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	for _, s := range []NodeID{"s1", "s2", "s3", "s4"} {
		n.AddSwitch(s)
	}
	for _, pair := range [][2]NodeID{{"h1", "s1"}, {"s1", "s2"}, {"s1", "s3"}, {"s2", "s4"}, {"s3", "s4"}, {"s4", "h2"}} {
		if _, err := n.Connect(pair[0], pair[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	return n, e
}

func TestLinkDownDropsQueuedAndInFlight(t *testing.T) {
	// Slow egress at s1 so a burst builds a queue, then cut s1-h2 while
	// packets are queued, serializing, and propagating.
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s1")
	_, _ = n.Connect("h1", "s1", LinkConfig{RateBps: 1_000_000_000, Delay: time.Microsecond})
	_, _ = n.Connect("s1", "h2", LinkConfig{RateBps: 1_000_000, Delay: 5 * time.Millisecond, QueueCap: 32})
	_ = n.ComputeRoutes()
	drops := map[DropReason]int{}
	n.OnDrop = func(p *Packet, at *Node, r DropReason) { drops[r]++ }
	for i := 0; i < 10; i++ {
		_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	}
	// 1500B at 1 Mbps = 12 ms serialization; cut the link mid-burst.
	e.At(20*time.Millisecond, func() {
		if err := n.SetLinkUp("s1", "h2", false); err != nil {
			t.Error(err)
		}
	})
	e.RunUntilIdle()
	if n.Delivered+n.Dropped != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", n.Delivered, n.Dropped)
	}
	if n.Delivered == 0 || n.Dropped == 0 {
		t.Fatalf("want a mix of deliveries and drops, got delivered=%d dropped=%d", n.Delivered, n.Dropped)
	}
	if drops[DropLinkDown] != int(n.Dropped) {
		t.Fatalf("drop reasons %v, want all link-down", drops)
	}
	if l := n.LinkBetween("s1", "h2"); l.Up() {
		t.Fatal("link reports up after SetLinkUp(false)")
	}
}

func TestLinkFlapKillsSerializingPacket(t *testing.T) {
	// A packet that is mid-serialization when the link flaps down and back
	// up before its completion event must still die: the wire it left on is
	// not the wire that exists now.
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddHost("h2")
	n.AddSwitch("s1")
	_, _ = n.Connect("h1", "s1", LinkConfig{RateBps: 1_000_000_000, Delay: time.Microsecond})
	_, _ = n.Connect("s1", "h2", LinkConfig{RateBps: 1_000_000, Delay: time.Millisecond}) // 12 ms per packet
	_ = n.ComputeRoutes()
	var reasons []DropReason
	n.OnDrop = func(p *Packet, at *Node, r DropReason) { reasons = append(reasons, r) }
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	// First packet serializes on s1->h2 roughly [0.1ms, 12.1ms]; flap within.
	e.At(3*time.Millisecond, func() { _ = n.SetLinkUp("s1", "h2", false) })
	e.At(4*time.Millisecond, func() { _ = n.SetLinkUp("s1", "h2", true) })
	e.RunUntilIdle()
	// Packet 1 died in serialization; packet 2 was flushed from the queue at
	// down time... or survived if it had not reached s1 yet. Either way the
	// serializing packet must not be delivered intact.
	if len(reasons) == 0 {
		t.Fatal("flap dropped nothing")
	}
	for _, r := range reasons {
		if r != DropLinkDown {
			t.Fatalf("unexpected drop reason %v", r)
		}
	}
	if n.Delivered+n.Dropped != 2 {
		t.Fatalf("delivered %d + dropped %d != 2", n.Delivered, n.Dropped)
	}
}

func TestLinkUpResumesQueuedTraffic(t *testing.T) {
	cfg := LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond}
	n, e := buildLine(t, cfg)
	delivered := 0
	n.Node("h2").Handler = func(p *Packet) { delivered++ }
	_ = n.SetLinkUp("s1", "h2", false)
	// Sent while down: the packet reaches s1 and is dropped at enqueue.
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	if delivered != 0 {
		t.Fatalf("delivered %d across a down link", delivered)
	}
	// Recover, then send again.
	_ = n.SetLinkUp("s1", "h2", true)
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	if delivered != 1 {
		t.Fatalf("delivered %d after recovery, want 1", delivered)
	}
}

func TestRerouteAroundDownLink(t *testing.T) {
	cfg := LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond}
	n, _ := buildDiamond(t, cfg)
	if !n.PathUsable("h1", "h2") {
		t.Fatal("path unusable before fault")
	}
	_ = n.SetLinkUp("s1", "s2", false)
	// Routes still point at the dead link: black hole until reconvergence.
	if n.PathUsable("h1", "h2") {
		t.Fatal("path reported usable across a down link")
	}
	if err := n.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	path, err := n.PathBetween("h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{"h1", "s1", "s3", "s4", "h2"}
	if len(path) != len(want) {
		t.Fatalf("rerouted path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("rerouted path %v, want %v", path, want)
		}
	}
	if !n.PathUsable("h1", "h2") {
		t.Fatal("rerouted path unusable")
	}
	// Recovery: routes fall back to the lexicographic choice.
	_ = n.SetLinkUp("s1", "s2", true)
	_ = n.ComputeRoutes()
	path, _ = n.PathBetween("h1", "h2")
	if path[2] != "s2" {
		t.Fatalf("post-recovery path %v, want via s2", path)
	}
}

func TestNodeHaltDropsAndRecovers(t *testing.T) {
	cfg := LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond}
	n, e := buildLine(t, cfg)
	drops := map[DropReason]int{}
	n.OnDrop = func(p *Packet, at *Node, r DropReason) { drops[r]++ }
	delivered := 0
	n.Node("h2").Handler = func(p *Packet) { delivered++ }

	// Halt the transit switch: packets die on arrival there.
	if err := n.SetNodeHalted("s1", true); err != nil {
		t.Fatal(err)
	}
	if !n.Node("s1").Halted() {
		t.Fatal("Halted() false after halt")
	}
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	if delivered != 0 || drops[DropHalted] != 1 {
		t.Fatalf("delivered=%d drops=%v, want transit drop", delivered, drops)
	}

	// Halt the source host: packets die at send time.
	_ = n.SetNodeHalted("s1", false)
	_ = n.SetNodeHalted("h1", true)
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	if delivered != 0 || drops[DropHalted] != 2 {
		t.Fatalf("delivered=%d drops=%v, want source drop", delivered, drops)
	}

	// Halt the destination: the packet dies on arrival at h2.
	_ = n.SetNodeHalted("h1", false)
	_ = n.SetNodeHalted("h2", true)
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	if delivered != 0 || drops[DropHalted] != 3 {
		t.Fatalf("delivered=%d drops=%v, want destination drop", delivered, drops)
	}
	if n.PathUsable("h1", "h2") {
		t.Fatal("path usable to a halted destination")
	}

	// Full recovery.
	_ = n.SetNodeHalted("h2", false)
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	if delivered != 1 {
		t.Fatalf("delivered=%d after restart, want 1", delivered)
	}
}

func TestComputeRoutesSkipsHaltedTransit(t *testing.T) {
	cfg := LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond}
	n, _ := buildDiamond(t, cfg)
	_ = n.SetNodeHalted("s2", true)
	_ = n.ComputeRoutes()
	path, err := n.PathBetween("h1", "h2")
	if err != nil {
		t.Fatal(err)
	}
	if path[2] != "s3" {
		t.Fatalf("path %v, want via s3 while s2 is halted", path)
	}
	// Halting the destination removes all routes to it.
	_ = n.SetNodeHalted("h2", true)
	_ = n.ComputeRoutes()
	if _, err := n.PathBetween("h1", "h2"); err == nil {
		t.Fatal("route installed toward a halted destination")
	}
}

func TestSetLinkDelayAndRate(t *testing.T) {
	cfg := LinkConfig{RateBps: 12_000_000, Delay: 10 * time.Millisecond}
	n, e := buildLine(t, cfg)
	var deliveredAt time.Duration
	n.Node("h2").Handler = func(p *Packet) { deliveredAt = e.Now() }

	// Baseline from TestDeliveryTiming: 1ms tx + 10ms + 1ms tx + 10ms = 22ms.
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	if deliveredAt != 22*time.Millisecond {
		t.Fatalf("baseline delivery at %v", deliveredAt)
	}

	// Degrade the s1-h2 link: 10x delay, 1/10 rate (10ms serialization).
	if err := n.SetLinkDelay("s1", "h2", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := n.SetLinkRate("s1", "h2", 1_200_000); err != nil {
		t.Fatal(err)
	}
	start := e.Now()
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	// 1ms tx + 10ms prop + 10ms tx + 100ms prop = 121ms after start.
	if got := deliveredAt - start; got != 121*time.Millisecond {
		t.Fatalf("degraded delivery took %v, want 121ms", got)
	}

	// Restore.
	_ = n.SetLinkDelay("s1", "h2", 10*time.Millisecond)
	_ = n.SetLinkRate("s1", "h2", 12_000_000)
	start = e.Now()
	_ = n.Send(n.NewPacket(KindData, "h1", "h2", 1500))
	e.RunUntilIdle()
	if got := deliveredAt - start; got != 22*time.Millisecond {
		t.Fatalf("restored delivery took %v, want 22ms", got)
	}
}

func TestFaultAPIValidation(t *testing.T) {
	cfg := LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond}
	n, _ := buildLine(t, cfg)
	if err := n.SetLinkUp("h1", "h2", false); err == nil {
		t.Error("SetLinkUp accepted non-adjacent pair")
	}
	if err := n.SetLinkDelay("h1", "nope", time.Second); err == nil {
		t.Error("SetLinkDelay accepted unknown node")
	}
	if err := n.SetLinkDelay("h1", "s1", -time.Second); err == nil {
		t.Error("SetLinkDelay accepted negative delay")
	}
	if err := n.SetLinkRate("h1", "s1", 0); err == nil {
		t.Error("SetLinkRate accepted zero rate")
	}
	if err := n.SetNodeHalted("nope", true); err == nil {
		t.Error("SetNodeHalted accepted unknown node")
	}
	if n.LinkBetween("nope", "h1") != nil {
		t.Error("LinkBetween found link for unknown node")
	}
	if n.PathUsable("nope", "h2") {
		t.Error("PathUsable true for unknown source")
	}
	// No-ops.
	if err := n.SetLinkUp("h1", "s1", true); err != nil {
		t.Errorf("no-op SetLinkUp: %v", err)
	}
	if err := n.SetNodeHalted("h1", false); err != nil {
		t.Errorf("no-op SetNodeHalted: %v", err)
	}
}

func TestSetLinkRateDirectionality(t *testing.T) {
	e := simtime.NewEngine()
	n := New(e)
	n.AddHost("h1")
	n.AddSwitch("s1")
	_, _ = n.Connect("h1", "s1", LinkConfig{RateBps: 10, ReverseRateBps: 20, Delay: time.Millisecond})
	if err := n.SetLinkRate("s1", "h1", 30); err != nil {
		t.Fatal(err)
	}
	l := n.LinkBetween("h1", "s1")
	if l.Config.RateBps != 10 || l.Config.ReverseRateBps != 30 {
		t.Fatalf("rates %d/%d, want 10/30", l.Config.RateBps, l.Config.ReverseRateBps)
	}
	if l.A.rateBps != 10 || l.B.rateBps != 30 {
		t.Fatalf("port rates %d/%d, want 10/30", l.A.rateBps, l.B.rateBps)
	}
}

// TestFaultInjectorDropReason: a packet the injected fault hook discards is
// reported to OnDrop as DropInjected.
func TestFaultInjectorDropReason(t *testing.T) {
	nw, e := buildLine(t, LinkConfig{RateBps: 50_000_000, Delay: time.Millisecond})
	var reason DropReason
	nw.OnDrop = func(p *Packet, at *Node, r DropReason) { reason = r }
	nw.SetFaultInjector(func(p *Packet, at *Node) bool { return at.ID == "s1" })
	nw.Node("h2").Handler = func(p *Packet) {}
	_ = nw.Send(nw.NewPacket(KindData, "h1", "h2", 100))
	e.RunUntilIdle()
	if reason != DropInjected {
		t.Fatalf("reason %v", reason)
	}
	if reason.String() != "injected" {
		t.Fatalf("reason string %q", reason.String())
	}
}
