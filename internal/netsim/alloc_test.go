package netsim_test

import (
	"testing"
	"time"

	"intsched/internal/dataplane"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
)

// TestTransientHopAllocatesNothing pins the packet hop at zero allocations:
// a transient packet sent across a switch running the INT program reuses a
// recycled packet, free-listed events, the port's serialization slot and
// ring, and the network's one ProcessorContext.
func TestTransientHopAllocatesNothing(t *testing.T) {
	e := simtime.NewEngine()
	nw := netsim.New(e)
	nw.AddHost("h1")
	nw.AddHost("h2")
	nw.AddSwitch("s1")
	cfg := netsim.LinkConfig{RateBps: 12_000_000, Delay: time.Millisecond}
	for _, pair := range [][2]netsim.NodeID{{"h1", "s1"}, {"s1", "h2"}} {
		if _, err := nw.Connect(pair[0], pair[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	dataplane.AttachINT(nw, dataplane.INTConfig{})
	delivered := 0
	nw.Node("h2").Handler = func(*netsim.Packet) { delivered++ }
	allocs := testing.AllocsPerRun(100, func() {
		_ = nw.Send(nw.NewPacket(netsim.KindDatagram, "h1", "h2", 1500).MarkTransient())
		e.RunUntilIdle()
	})
	if delivered != 101 {
		t.Fatalf("delivered %d of 101", delivered)
	}
	if allocs != 0 {
		t.Fatalf("a transient packet's hop allocated %.1f per packet, want 0", allocs)
	}
}
