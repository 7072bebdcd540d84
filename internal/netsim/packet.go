// Package netsim is a deterministic, packet-level, discrete-event network
// simulator. It models hosts and switches connected by full-duplex links
// with finite bandwidth, propagation delay, and drop-tail egress queues.
//
// netsim stands in for the paper's Mininet + BMv2 testbed: the queueing
// phenomena the paper exploits (queue buildup under load, queueing delay,
// bottleneck-limited throughput) are reproduced exactly by per-port
// serialization and finite FIFO queues, while remaining deterministic and
// fast enough to replay every experiment on a laptop.
//
// Switches expose P4-style ingress/egress processing hooks (see the
// dataplane package) which is how INT register staging and probe stamping
// are implemented without netsim knowing anything about telemetry.
package netsim

import (
	"fmt"
	"time"

	"intsched/internal/simtime"
	"intsched/internal/telemetry"
)

// NodeID identifies a node (host or switch) in the network.
type NodeID string

// PacketKind tags the role of a packet so hosts and dataplane programs can
// demultiplex without deep payload inspection (the simulator's stand-in for
// protocol/port numbers plus the Geneve probe marker).
type PacketKind uint8

// Packet kinds.
const (
	// KindData is a transport data segment (TCP-like flows and CBR traffic).
	KindData PacketKind = iota
	// KindAck is a transport acknowledgement.
	KindAck
	// KindProbe is an INT probe packet (Geneve-marked UDP in the paper).
	KindProbe
	// KindPingReq and KindPingResp implement ICMP-echo-style RTT probing.
	KindPingReq
	KindPingResp
	// KindControl carries scheduler query requests/responses and task
	// control messages (submission headers, completion notifications).
	KindControl
	// KindDatagram is unreliable datagram traffic (iperf-style CBR
	// background flows); receivers do not acknowledge it.
	KindDatagram
	// KindControlAck acknowledges a control message (control messages are
	// retransmitted until acknowledged — task lifecycle and scheduler
	// queries must survive congestion loss).
	KindControlAck
)

var kindNames = [...]string{"data", "ack", "probe", "ping-req", "ping-resp", "control", "datagram", "control-ack"}

func (k PacketKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// DefaultTTL is the initial hop limit assigned to packets.
const DefaultTTL = 64

// Packet is the unit of transmission. Packets are passed by pointer and
// mutated in place as they traverse the network (TTL, INT bookkeeping).
type Packet struct {
	// ID is unique per network instance.
	ID uint64
	// Kind tags the packet's role.
	Kind PacketKind
	// hasEgressTS marks egressTS as set, and transient marks fire-and-forget
	// packets (acks, pings, control copies, datagrams) whose creator keeps no
	// reference past delivery or drop; the network recycles them through
	// its free list. Both sit beside Kind so the packet fits in 192 bytes.
	hasEgressTS bool
	transient   bool
	// Src and Dst are host node IDs.
	Src, Dst NodeID
	// Size is the on-wire size in bytes (headers included).
	Size int
	// FlowID groups packets of one transport flow.
	FlowID uint64
	// Seq is a transport-defined sequence number.
	Seq int64
	// TTL is decremented by each switch; the packet is dropped at zero.
	TTL int
	// SentAt is the virtual time the packet entered the network at its
	// source host.
	SentAt time.Duration

	// Payload carries higher-layer data (control messages, ack metadata).
	// It is opaque to netsim.
	Payload any

	// Probe points to the INT payload for KindProbe packets. The dataplane
	// appends records here; probes are padded to a fixed size so the
	// on-wire Size never changes mid-path.
	Probe *telemetry.ProbePayload

	// egressTS implements the paper's link-latency measurement: the
	// previous device writes its egress timestamp into the probe just
	// before transmission; the next device extracts it at ingress (before
	// enqueueing) so the measurement excludes queueing.
	egressTS time.Duration
	// ingressAt and inPort record when and on which port this packet
	// arrived at the device currently holding it (the probe's per-hop
	// residence time and its record's ingress port); linkLatency is what
	// that device's dataplane measured for the arrival link at ingress. All
	// three travel with the packet to the device's egress stage, so a packet
	// dropped in between leaves nothing behind.
	ingressAt   time.Duration
	linkLatency time.Duration
	inPort      int32
	// hops counts traversed switches.
	hops int32
	// wire is the port whose link the packet is propagating across (nil
	// otherwise), wireGen that link's downGen at departure, and landing the
	// place in the firing order its landing event takes. wireNext is the
	// packet behind it in the wire's FIFO (see Network.depart).
	wire     *Port
	wireGen  uint64
	landing  simtime.Place
	wireNext *Packet
}

// MarkTransient declares that no component holds a reference to the packet
// once the network has delivered or dropped it, allowing the network to
// recycle the object for a later NewPacket call. Handlers receiving a
// transient packet must copy out anything they keep (the Probe payload
// pointer may be retained: recycling only clears the packet's reference).
// It returns p so creation sites can chain it.
func (p *Packet) MarkTransient() *Packet {
	p.transient = true
	return p
}

// Hops returns the number of switches the packet has traversed so far.
func (p *Packet) Hops() int { return int(p.hops) }

// StampEgress records the egress timestamp used for link-latency
// measurement at the next hop. Called by the dataplane at egress.
func (p *Packet) StampEgress(now time.Duration) {
	p.hasEgressTS = true
	p.egressTS = now
}

// TakeEgressStamp extracts and clears the previous hop's egress timestamp.
// The boolean reports whether a stamp was present (false on first hop).
func (p *Packet) TakeEgressStamp() (time.Duration, bool) {
	if !p.hasEgressTS {
		return 0, false
	}
	p.hasEgressTS = false
	return p.egressTS, true
}

// IngressAt returns when the packet arrived at the device currently
// processing it.
func (p *Packet) IngressAt() time.Duration { return p.ingressAt }

// SetLinkLatency stores the arrival link's latency, measured by the
// dataplane at ingress, for the same device's egress stage.
func (p *Packet) SetLinkLatency(d time.Duration) { p.linkLatency = d }

// LinkLatency returns what SetLinkLatency stored at this device's ingress.
func (p *Packet) LinkLatency() time.Duration { return p.linkLatency }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %s->%s %dB flow=%d seq=%d", p.ID, p.Kind, p.Src, p.Dst, p.Size, p.FlowID, p.Seq)
}
