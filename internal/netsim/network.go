package netsim

import (
	"fmt"
	"sort"
	"time"

	"intsched/internal/simtime"
)

// NodeKind distinguishes hosts from switches.
type NodeKind uint8

const (
	// Host nodes originate and sink traffic. They have exactly one port.
	Host NodeKind = iota
	// Switch nodes forward traffic between ports and run the dataplane
	// processing pipeline.
	Switch
)

func (k NodeKind) String() string {
	if k == Host {
		return "host"
	}
	return "switch"
}

// ProcessorContext is handed to dataplane hooks with everything a P4-style
// program can see about the packet's position in the device.
type ProcessorContext struct {
	// Device is the switch executing the pipeline.
	Device *Node
	// InPort is the port the packet arrived on, at ingress and egress alike.
	InPort int
	// OutPort is the egress port selected by forwarding.
	OutPort int
	// QueueLen is the occupancy of the egress queue (packets), measured
	// before this packet is enqueued (ingress) or after it is dequeued
	// for transmission (egress) — mirroring BMv2's enq_qdepth/deq_qdepth.
	QueueLen int
	// Now is the current virtual time.
	Now time.Duration
}

// Processor is the P4-style packet-processing pipeline attached to a switch.
// Ingress runs on arrival, after the forwarding decision but before the
// packet is enqueued. Egress runs when the packet reaches the head of the
// egress queue and starts transmission.
//
// ctx is valid only for the duration of the call: the network refills one
// context for every hook it runs, so a Processor must copy what it keeps.
type Processor interface {
	Ingress(ctx *ProcessorContext, pkt *Packet)
	Egress(ctx *ProcessorContext, pkt *Packet)
}

// Handler receives packets delivered to a host.
type Handler func(pkt *Packet)

// Node is a host or switch.
type Node struct {
	ID    NodeID
	Kind  NodeKind
	Ports []*Port

	// Processor is the dataplane pipeline (switches only; may be nil).
	Processor Processor
	// Handler is the local delivery callback (hosts only).
	Handler Handler

	net *Network
	// routes maps destination host -> egress port index.
	routes map[NodeID]int
	// halted nodes drop everything (see SetNodeHalted).
	halted bool
}

// Network returns the network the node belongs to.
func (n *Node) Network() *Network { return n.net }

// PortTo returns the port whose link leads directly to neighbor, or -1.
func (n *Node) PortTo(neighbor NodeID) int {
	for i, p := range n.Ports {
		if p.peer != nil && p.peer.node.ID == neighbor {
			return i
		}
	}
	return -1
}

// Neighbors returns the IDs of directly connected nodes in port order,
// regardless of link or node state (the physical wiring).
func (n *Node) Neighbors() []NodeID {
	out := make([]NodeID, 0, len(n.Ports))
	for _, p := range n.Ports {
		if p.peer != nil {
			out = append(out, p.peer.node.ID)
		}
	}
	return out
}

// activeNeighbors returns neighbors reachable over live links, excluding
// halted peers — the view routing reconvergence sees.
func (n *Node) activeNeighbors() []NodeID {
	out := make([]NodeID, 0, len(n.Ports))
	for _, p := range n.Ports {
		if p.peer != nil && !p.link.down && !p.peer.node.halted {
			out = append(out, p.peer.node.ID)
		}
	}
	return out
}

// Port is one side of a link. It owns the egress queue and transmitter for
// its direction of the link.
type Port struct {
	node  *Node
	index int
	link  *Link
	peer  *Port

	queue packetRing
	// tx is the packet on the transmitter (nil when idle) and txGen the
	// link's downGen when it started serializing. A port has at most one:
	// the next starts only from tx's completion event.
	tx      *Packet
	txGen   uint64
	rateBps int64
	// wireTail is the last packet of the FIFO propagating across the link
	// from this port, nil when it is empty (see Network.depart).
	wireTail *Packet

	// Stats
	TxPackets uint64
	TxBytes   uint64
	RxPackets uint64
	Drops     uint64
	// MaxQueueEver tracks the largest occupancy seen over the port's
	// lifetime (diagnostics; the dataplane keeps its own windowed max).
	MaxQueueEver int
}

// Node returns the owning node.
func (p *Port) Node() *Node { return p.node }

// Index returns the port's index on its node.
func (p *Port) Index() int { return p.index }

// Link returns the attached link.
func (p *Port) Link() *Link { return p.link }

// Peer returns the port at the other end of the link.
func (p *Port) Peer() *Port { return p.peer }

// QueueLen returns the current egress-queue occupancy in packets, counting
// the packet being transmitted.
func (p *Port) QueueLen() int {
	n := p.queue.n
	if p.tx != nil {
		n++
	}
	return n
}

// packetRing is a port's egress FIFO: a head-indexed ring that grows by
// doubling, up to the link's QueueCap, only when it is full. It is never
// sized eagerly — most ports of a topology never queue more than a few
// packets.
type packetRing struct {
	buf     []*Packet
	head, n int
}

// push appends pkt; limit caps how far the ring may grow.
func (r *packetRing) push(pkt *Packet, limit int) {
	if r.n == len(r.buf) {
		size := min(max(2*len(r.buf), 4), limit)
		grown := make([]*Packet, max(size, r.n+1))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = pkt
	r.n++
}

// pop removes and returns the head. The ring must be non-empty.
func (r *packetRing) pop() *Packet {
	pkt := r.buf[r.head]
	r.buf[r.head] = nil
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return pkt
}

// LinkConfig describes one link's characteristics.
type LinkConfig struct {
	// RateBps is the transmission rate of the A→B direction (the first
	// Connect argument's egress) in bits per second.
	RateBps int64
	// ReverseRateBps is the B→A rate; zero means symmetric (RateBps).
	// Asymmetric rates model the paper's testbed, where host NICs are fast
	// but BMv2 switch forwarding caps at ~20 Mbps — the bottleneck (and
	// therefore the queueing) lives at switch egress ports.
	ReverseRateBps int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueCap is the egress queue capacity in packets (per direction),
	// not counting the packet being serialized. Zero means DefaultQueueCap.
	QueueCap int
}

// DefaultQueueCap is the per-port egress queue capacity used when a link
// does not specify one. BMv2's default queue depth is 64 packets; we use
// the same so Fig-3 queue magnitudes are comparable.
const DefaultQueueCap = 64

// Link is a full-duplex connection between two ports.
type Link struct {
	A, B   *Port
	Config LinkConfig

	// down links pass no traffic (see SetLinkUp). downGen increments on
	// every up→down transition so callbacks scheduled before a flap can
	// tell the link they captured is not the link they see.
	down    bool
	downGen uint64
}

// Ends returns the node IDs at the two ends.
func (l *Link) Ends() (NodeID, NodeID) { return l.A.node.ID, l.B.node.ID }

// DropReason classifies packet drops for stats and tests.
type DropReason uint8

const (
	// DropQueueFull means the egress queue had no room.
	DropQueueFull DropReason = iota
	// DropTTL means the hop limit reached zero.
	DropTTL
	// DropNoRoute means the switch had no route to the destination.
	DropNoRoute
	// DropLinkDown means the packet was queued on, serializing onto, or
	// propagating across a link that went down.
	DropLinkDown
	// DropHalted means the packet met a halted node (as source, transit,
	// or destination).
	DropHalted
)

func (r DropReason) String() string {
	switch r {
	case DropQueueFull:
		return "queue-full"
	case DropTTL:
		return "ttl"
	case DropNoRoute:
		return "no-route"
	case DropLinkDown:
		return "link-down"
	case DropHalted:
		return "halted"
	case DropInjected:
		return "injected"
	}
	return "unknown"
}

// Network owns the topology and drives packet motion on a simtime engine.
type Network struct {
	engine *simtime.Engine

	nodes map[NodeID]*Node
	order []NodeID // insertion order, for deterministic iteration
	links []*Link

	nextPacketID uint64
	// freePkts is the free list of recycled transient packets (see
	// Packet.MarkTransient); NewPacket pops from it before allocating.
	freePkts []*Packet

	fault FaultFn
	// ctx is the one ProcessorContext every Processor call is handed.
	ctx ProcessorContext

	// OnDrop, when set, is invoked for every dropped packet.
	OnDrop func(pkt *Packet, at *Node, reason DropReason)

	// Stats
	Delivered uint64
	Dropped   uint64
	// PacketsRecycled counts packets reused from the free list instead of
	// freshly allocated (allocation diagnostics).
	PacketsRecycled uint64
}

// New creates an empty network on the given engine.
func New(engine *simtime.Engine) *Network {
	return &Network{engine: engine, nodes: make(map[NodeID]*Node)}
}

// Engine returns the simulation engine.
func (n *Network) Engine() *simtime.Engine { return n.engine }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.engine.Now() }

func (n *Network) addNode(id NodeID, kind NodeKind) *Node {
	if _, ok := n.nodes[id]; ok {
		panic(fmt.Sprintf("netsim: duplicate node %q", id))
	}
	node := &Node{ID: id, Kind: kind, net: n, routes: make(map[NodeID]int)}
	n.nodes[id] = node
	n.order = append(n.order, id)
	return node
}

// AddHost adds a host node.
func (n *Network) AddHost(id NodeID) *Node { return n.addNode(id, Host) }

// AddSwitch adds a switch node.
func (n *Network) AddSwitch(id NodeID) *Node { return n.addNode(id, Switch) }

// Node returns the node with the given ID, or nil.
func (n *Network) Node(id NodeID) *Node { return n.nodes[id] }

// Nodes returns all node IDs in insertion order.
func (n *Network) Nodes() []NodeID {
	out := make([]NodeID, len(n.order))
	copy(out, n.order)
	return out
}

// Hosts returns all host IDs in insertion order.
func (n *Network) Hosts() []NodeID {
	var out []NodeID
	for _, id := range n.order {
		if n.nodes[id].Kind == Host {
			out = append(out, id)
		}
	}
	return out
}

// Switches returns all switch IDs in insertion order.
func (n *Network) Switches() []NodeID {
	var out []NodeID
	for _, id := range n.order {
		if n.nodes[id].Kind == Switch {
			out = append(out, id)
		}
	}
	return out
}

// Links returns all links.
func (n *Network) Links() []*Link {
	out := make([]*Link, len(n.links))
	copy(out, n.links)
	return out
}

// Connect joins nodes a and b with a full-duplex link.
func (n *Network) Connect(a, b NodeID, cfg LinkConfig) (*Link, error) {
	na, nb := n.nodes[a], n.nodes[b]
	if na == nil || nb == nil {
		return nil, fmt.Errorf("netsim: connect %s-%s: unknown node", a, b)
	}
	if a == b {
		return nil, fmt.Errorf("netsim: connect %s to itself", a)
	}
	if na.Kind == Host && len(na.Ports) == 1 {
		return nil, fmt.Errorf("netsim: host %s already has an uplink", a)
	}
	if nb.Kind == Host && len(nb.Ports) == 1 {
		return nil, fmt.Errorf("netsim: host %s already has an uplink", b)
	}
	if cfg.RateBps <= 0 {
		return nil, fmt.Errorf("netsim: connect %s-%s: rate must be positive", a, b)
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("netsim: connect %s-%s: negative delay", a, b)
	}
	if cfg.ReverseRateBps < 0 {
		return nil, fmt.Errorf("netsim: connect %s-%s: negative reverse rate", a, b)
	}
	if cfg.QueueCap < 0 {
		return nil, fmt.Errorf("netsim: connect %s-%s: negative queue capacity", a, b)
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	if cfg.ReverseRateBps == 0 {
		cfg.ReverseRateBps = cfg.RateBps
	}
	pa := &Port{node: na, index: len(na.Ports), rateBps: cfg.RateBps}
	pb := &Port{node: nb, index: len(nb.Ports), rateBps: cfg.ReverseRateBps}
	link := &Link{A: pa, B: pb, Config: cfg}
	pa.link, pb.link = link, link
	pa.peer, pb.peer = pb, pa
	na.Ports = append(na.Ports, pa)
	nb.Ports = append(nb.Ports, pb)
	n.links = append(n.links, link)
	return link, nil
}

// ComputeRoutes installs shortest-path routes (hop count) from every node to
// every host using BFS. Ties are broken deterministically by lexicographic
// neighbor ID so the scheduler-side topology traversal can reproduce the
// exact same paths from learned telemetry.
//
// Down links and halted nodes are invisible to the BFS, so re-running
// ComputeRoutes after a fault models routing reconvergence: destinations cut
// off by the fault simply get no route entry (senders see DropNoRoute).
// Until it is re-run, routes keep pointing at dead links — the black-hole
// window the fault experiments measure.
func (n *Network) ComputeRoutes() error {
	hosts := n.Hosts()
	for _, src := range n.order {
		node := n.nodes[src]
		node.routes = make(map[NodeID]int, len(hosts))
	}
	// BFS from each host backwards: compute, for each node, the next hop
	// toward that host.
	for _, dst := range hosts {
		if n.nodes[dst].halted {
			continue
		}
		// dist and parent via BFS over the undirected graph rooted at dst.
		next := map[NodeID]NodeID{} // node -> neighbor one step closer to dst
		visited := map[NodeID]bool{dst: true}
		frontier := []NodeID{dst}
		for len(frontier) > 0 {
			var nextFrontier []NodeID
			for _, cur := range frontier {
				neighbors := n.nodes[cur].activeNeighbors()
				sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
				for _, nb := range neighbors {
					if visited[nb] {
						continue
					}
					// Hosts never forward transit traffic.
					if n.nodes[nb].Kind == Host && nb != dst {
						visited[nb] = true
						next[nb] = cur
						continue
					}
					visited[nb] = true
					next[nb] = cur
					nextFrontier = append(nextFrontier, nb)
				}
			}
			frontier = nextFrontier
		}
		for id, via := range next {
			node := n.nodes[id]
			port := node.PortTo(via)
			if port < 0 {
				return fmt.Errorf("netsim: internal: no port from %s to %s", id, via)
			}
			node.routes[dst] = port
		}
	}
	return nil
}

// PathBetween returns the node sequence (including endpoints) a packet from
// src to dst traverses under the installed routes, or an error if
// unreachable. Useful for tests and the Nearest baseline.
func (n *Network) PathBetween(src, dst NodeID) ([]NodeID, error) {
	if n.nodes[src] == nil || n.nodes[dst] == nil {
		return nil, fmt.Errorf("netsim: path %s->%s: unknown node", src, dst)
	}
	path := []NodeID{src}
	cur := src
	for cur != dst {
		node := n.nodes[cur]
		port, ok := node.routes[dst]
		if !ok {
			return nil, fmt.Errorf("netsim: no route from %s to %s (at %s)", src, dst, cur)
		}
		cur = node.Ports[port].peer.node.ID
		path = append(path, cur)
		if len(path) > len(n.order)+1 {
			return nil, fmt.Errorf("netsim: routing loop on path %s->%s", src, dst)
		}
	}
	return path, nil
}

// HopCount returns the number of links on the routed path between two hosts.
func (n *Network) HopCount(src, dst NodeID) (int, error) {
	p, err := n.PathBetween(src, dst)
	if err != nil {
		return 0, err
	}
	return len(p) - 1, nil
}

// NewPacket returns a packet with a fresh ID and defaults, reusing a
// recycled transient packet when one is available.
func (n *Network) NewPacket(kind PacketKind, src, dst NodeID, size int) *Packet {
	n.nextPacketID++
	var pkt *Packet
	if l := len(n.freePkts); l > 0 {
		pkt = n.freePkts[l-1]
		n.freePkts[l-1] = nil
		n.freePkts = n.freePkts[:l-1]
		*pkt = Packet{}
		n.PacketsRecycled++
	} else {
		pkt = &Packet{}
	}
	pkt.ID = n.nextPacketID
	pkt.Kind = kind
	pkt.Src = src
	pkt.Dst = dst
	pkt.Size = size
	pkt.TTL = DefaultTTL
	return pkt
}

// recycle returns a transient packet to the free list once the network is
// finally done with it (delivered to its handler or dropped).
func (n *Network) recycle(pkt *Packet) {
	if !pkt.transient {
		return
	}
	pkt.transient = false
	pkt.Payload = nil
	pkt.Probe = nil
	n.freePkts = append(n.freePkts, pkt)
}

// Send injects a packet into the network at its source host.
func (n *Network) Send(pkt *Packet) error {
	src := n.nodes[pkt.Src]
	if src == nil {
		return fmt.Errorf("netsim: send: unknown source %s", pkt.Src)
	}
	if src.Kind != Host {
		return fmt.Errorf("netsim: send: source %s is not a host", pkt.Src)
	}
	if n.nodes[pkt.Dst] == nil {
		return fmt.Errorf("netsim: send: unknown destination %s", pkt.Dst)
	}
	if pkt.Size <= 0 {
		return fmt.Errorf("netsim: send: packet size must be positive")
	}
	pkt.SentAt = n.engine.Now()
	pkt.ingressAt = n.engine.Now()
	if src.halted {
		n.drop(pkt, src, DropHalted)
		return nil
	}
	if pkt.Src == pkt.Dst {
		// Local delivery without touching the network.
		n.engine.After(0, func() { n.deliver(src, pkt) })
		return nil
	}
	port, ok := src.routes[pkt.Dst]
	if !ok {
		n.drop(pkt, src, DropNoRoute)
		return nil
	}
	n.enqueue(src.Ports[port], pkt)
	return nil
}

// enqueue places pkt on port's egress queue, starting transmission if idle.
func (n *Network) enqueue(port *Port, pkt *Packet) {
	if port.link.down {
		port.Drops++
		n.drop(pkt, port.node, DropLinkDown)
		return
	}
	if port.queue.n >= port.link.Config.QueueCap {
		port.Drops++
		n.drop(pkt, port.node, DropQueueFull)
		return
	}
	port.queue.push(pkt, port.link.Config.QueueCap)
	q := port.QueueLen()
	if q > port.MaxQueueEver {
		port.MaxQueueEver = q
	}
	if port.tx == nil {
		n.transmitNext(port)
	}
}

// transmitNext pops the head of the queue and starts serializing it; its
// completion is one serialized event carrying the port.
func (n *Network) transmitNext(port *Port) {
	if port.queue.n == 0 || port.link.down || port.node.halted {
		return
	}
	pkt := port.queue.pop()
	port.tx, port.txGen = pkt, port.link.downGen

	// Egress processing fires as the packet reaches the head of the queue,
	// matching the paper's "beginning of the egress queue" semantics.
	if port.node.Kind == Switch && port.node.Processor != nil {
		n.ctx = ProcessorContext{
			Device:   port.node,
			InPort:   int(pkt.inPort),
			OutPort:  port.index,
			QueueLen: port.queue.n,
			Now:      n.engine.Now(),
		}
		port.node.Processor.Egress(&n.ctx, pkt)
	} else if port.node.Kind == Host && pkt.Kind == KindProbe {
		// Hosts stamp outgoing probes so the first link's latency is
		// measurable too.
		pkt.StampEgress(n.engine.Now())
	}

	txTime := time.Duration(float64(pkt.Size*8) / float64(port.rateBps) * float64(time.Second))
	n.engine.AfterWith(txTime, serialized, port)
}

// serialized is the event that ends a port's transmission of its tx packet.
func serialized(arg any) {
	port := arg.(*Port)
	n := port.node.net
	pkt := port.tx
	if port.link.down || port.txGen != port.link.downGen || port.node.halted {
		// The link flapped (or the node halted) while the packet was
		// serializing: it never made it onto the wire intact.
		port.Drops++
		reason := DropLinkDown
		if port.node.halted {
			reason = DropHalted
		}
		n.drop(pkt, port.node, reason)
		port.tx = nil
		// If the fault has already cleared, resume draining the queue.
		n.kick(port)
		return
	}
	port.tx = nil
	port.TxPackets++
	port.TxBytes += uint64(pkt.Size)
	// Transmitter is free; start the next packet immediately.
	n.transmitNext(port)
	n.depart(port, pkt)
}

// depart puts pkt on port's wire. Its landing place is reserved now, where
// scheduling its landing event would take it, so the firing order is as if
// every packet had its own event. The delay is read at departure, so a
// SetLinkDelay applies to transmissions starting after the change; with an
// unchanged delay, places ascend along a wire because departures do. The
// wire therefore keeps its packets in a FIFO, linked through wireNext, and
// only the head's landing is a queued event. The one exception is a packet
// that would land before the tail, after a lowered delay: it overtakes on
// its own event at its reserved place and never joins the FIFO, so the
// FIFO only ever holds ascending places.
func (n *Network) depart(port *Port, pkt *Packet) {
	pkt.wire, pkt.wireGen = port, port.txGen
	pkt.landing = n.engine.Reserve(port.link.Config.Delay)
	tail := port.wireTail
	if tail != nil && !pkt.landing.Before(tail.landing) {
		tail.wireNext, port.wireTail = pkt, pkt
		return
	}
	if tail == nil {
		port.wireTail = pkt
	}
	n.engine.AtPlace(pkt.landing, propagated, pkt)
}

// propagated is the event that lands a packet at the far end of its wire.
// A packet in its wire's FIFO lands as the head: it queues the next one's
// landing, or empties the wire if it is the tail. An overtaking packet is
// neither linked nor the tail, so it leaves the FIFO alone.
func propagated(arg any) {
	pkt := arg.(*Packet)
	port := pkt.wire
	n := port.node.net
	if next := pkt.wireNext; next != nil {
		pkt.wireNext = nil
		n.engine.AtPlace(next.landing, propagated, next)
	} else if port.wireTail == pkt {
		port.wireTail = nil
	}
	pkt.wire = nil
	if port.link.down || pkt.wireGen != port.link.downGen {
		// The link went down under the propagating packet.
		n.drop(pkt, port.peer.node, DropLinkDown)
		return
	}
	n.arrive(port.peer, pkt)
}

// arrive handles a packet reaching the near end of a link.
func (n *Network) arrive(port *Port, pkt *Packet) {
	port.RxPackets++
	node := port.node
	pkt.ingressAt = n.engine.Now()
	pkt.inPort = int32(port.index)
	if node.halted {
		n.drop(pkt, node, DropHalted)
		return
	}
	if n.fault != nil && n.fault(pkt, node) {
		n.drop(pkt, node, DropInjected)
		return
	}
	if node.Kind == Host {
		n.deliver(node, pkt)
		return
	}
	// Switch: TTL, route, ingress processing, enqueue.
	pkt.TTL--
	if pkt.TTL <= 0 {
		n.drop(pkt, node, DropTTL)
		return
	}
	outPort, ok := node.routes[pkt.Dst]
	if !ok {
		n.drop(pkt, node, DropNoRoute)
		return
	}
	pkt.hops++
	if node.Processor != nil {
		n.ctx = ProcessorContext{
			Device:   node,
			InPort:   port.index,
			OutPort:  outPort,
			QueueLen: node.Ports[outPort].QueueLen(),
			Now:      n.engine.Now(),
		}
		node.Processor.Ingress(&n.ctx, pkt)
	}
	n.enqueue(node.Ports[outPort], pkt)
}

func (n *Network) deliver(node *Node, pkt *Packet) {
	n.Delivered++
	if node.Handler != nil {
		node.Handler(pkt)
	}
	n.recycle(pkt)
}

func (n *Network) drop(pkt *Packet, at *Node, reason DropReason) {
	n.Dropped++
	if n.OnDrop != nil {
		n.OnDrop(pkt, at, reason)
	}
	n.recycle(pkt)
}
