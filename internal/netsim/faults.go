package netsim

import (
	"fmt"
	"time"
)

// Runtime topology mutation: links can go down and come back, their rate and
// propagation delay can change, and whole nodes can halt and restart — all
// mid-simulation, interacting with in-flight packets and drop-tail queues.
// The rules are checked at event boundaries:
//
//   - Taking a link down flushes both directions' egress queues
//     (DropLinkDown) and kills every packet currently being serialized or
//     propagating across it, even if the link recovers before the packet's
//     completion event fires (a per-link down generation makes the flap
//     visible to already-scheduled callbacks).
//   - Halting a node flushes its egress queues (DropHalted); packets that
//     arrive at, are sent by, or finish serializing on a halted node are
//     dropped.
//   - Rate and delay changes apply to transmissions that start after the
//     change; packets already on the wire keep the parameters they departed
//     with.
//
// None of this reroutes traffic by itself: installed routes keep pointing at
// dead links until ComputeRoutes runs again (it skips down links and halted
// nodes), modelling the window where the control plane has not yet
// reconverged and traffic black-holes.

// Up reports whether the link is currently passing traffic.
func (l *Link) Up() bool { return !l.down }

// Halted reports whether the node is currently halted.
func (nd *Node) Halted() bool { return nd.halted }

// LinkBetween returns the link directly connecting a and b, or nil.
func (n *Network) LinkBetween(a, b NodeID) *Link {
	na := n.nodes[a]
	if na == nil {
		return nil
	}
	for _, p := range na.Ports {
		if p.peer != nil && p.peer.node.ID == b {
			return p.link
		}
	}
	return nil
}

// SetLinkUp changes the up/down state of the link between a and b. Taking a
// link down flushes both egress queues and dooms in-flight packets; bringing
// it up resumes transmission of anything queued since. Setting the current
// state is a no-op.
func (n *Network) SetLinkUp(a, b NodeID, up bool) error {
	l := n.LinkBetween(a, b)
	if l == nil {
		return fmt.Errorf("netsim: no link between %s and %s", a, b)
	}
	if up == !l.down {
		return nil
	}
	if up {
		l.down = false
		n.kick(l.A)
		n.kick(l.B)
		return nil
	}
	l.down = true
	l.downGen++
	n.flushQueue(l.A, DropLinkDown)
	n.flushQueue(l.B, DropLinkDown)
	return nil
}

// SetLinkDelay changes the one-way propagation delay of the link between a
// and b (both directions). Transmissions that start after the change use the
// new delay.
func (n *Network) SetLinkDelay(a, b NodeID, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("netsim: set delay %s-%s: negative delay", a, b)
	}
	l := n.LinkBetween(a, b)
	if l == nil {
		return fmt.Errorf("netsim: no link between %s and %s", a, b)
	}
	l.Config.Delay = d
	return nil
}

// SetLinkRate changes the transmission rate of the a→b direction of the link
// between a and b. Transmissions that start after the change use the new
// rate.
func (n *Network) SetLinkRate(a, b NodeID, rateBps int64) error {
	if rateBps <= 0 {
		return fmt.Errorf("netsim: set rate %s-%s: rate must be positive", a, b)
	}
	l := n.LinkBetween(a, b)
	if l == nil {
		return fmt.Errorf("netsim: no link between %s and %s", a, b)
	}
	if l.A.node.ID == a {
		l.A.rateBps = rateBps
		l.Config.RateBps = rateBps
	} else {
		l.B.rateBps = rateBps
		l.Config.ReverseRateBps = rateBps
	}
	return nil
}

// SetNodeHalted halts or restarts a node. A halted node drops everything:
// packets arriving at it, packets it would send, and packets finishing
// serialization on its ports; its egress queues are flushed at halt time.
// Restarting resumes queue service but does not restore routes through the
// node — run ComputeRoutes for that. Setting the current state is a no-op.
func (n *Network) SetNodeHalted(id NodeID, halted bool) error {
	node := n.nodes[id]
	if node == nil {
		return fmt.Errorf("netsim: halt: unknown node %s", id)
	}
	if node.halted == halted {
		return nil
	}
	node.halted = halted
	for _, p := range node.Ports {
		if halted {
			n.flushQueue(p, DropHalted)
		} else {
			n.kick(p)
		}
	}
	return nil
}

// PathUsable reports whether the installed routes carry a packet from src to
// dst over live links and running nodes. It is the ground-truth check the
// fault experiments use to classify a scheduling decision as usable or
// black-holed at the moment it was made.
func (n *Network) PathUsable(src, dst NodeID) bool {
	cur := n.nodes[src]
	if cur == nil || n.nodes[dst] == nil || cur.halted || n.nodes[dst].halted {
		return false
	}
	for steps := 0; cur.ID != dst; steps++ {
		if steps > len(n.order) {
			return false // routing loop
		}
		port, ok := cur.routes[dst]
		if !ok {
			return false
		}
		p := cur.Ports[port]
		if p.link.down {
			return false
		}
		cur = p.peer.node
		if cur.halted {
			return false
		}
	}
	return true
}

// kick resumes transmission on a port that has queued packets but no active
// transmission (after a link or node recovers).
func (n *Network) kick(p *Port) {
	if p.tx == nil && p.queue.n > 0 && !p.link.down && !p.node.halted {
		n.transmitNext(p)
	}
}

// flushQueue drops every queued packet on the port. The packet currently
// being serialized (if any) is not in the queue; it dies when its completion
// event observes the state change.
func (n *Network) flushQueue(p *Port, reason DropReason) {
	for p.queue.n > 0 {
		p.Drops++
		n.drop(p.queue.pop(), p.node, reason)
	}
}

// FaultFn decides whether to forcibly drop a packet arriving at a node —
// the hook used by loss-injection tests and chaos experiments. Returning
// true discards the packet (reported as DropInjected).
type FaultFn func(pkt *Packet, at *Node) bool

// SetFaultInjector installs (or clears) the arrival fault hook.
//
// Deprecated: a fault.Timeline (internal/fault) owns this hook when one is
// attached to the network; installing a raw FaultFn alongside a timeline
// silently replaces its probe-loss injector. New code should express loss
// as a fault.Event (ProbeLoss) so drops are scheduled, seeded, and counted
// with the rest of the failure schedule. Direct use remains for low-level
// netsim tests only.
func (n *Network) SetFaultInjector(f FaultFn) { n.fault = f }

// DropInjected marks packets discarded by the fault injector.
const DropInjected DropReason = 250
