package dataplane

import (
	"time"

	"intsched/internal/netsim"
	"intsched/internal/telemetry"
)

// DefaultPerHopBytes approximates a classic INT per-hop report: switch ID,
// ports, and queue depth (the paper's example uses two 4-byte fields plus
// the shim).
const DefaultPerHopBytes = 16

// Ingress implements netsim.Processor: the simulator's call into Observe.
// The link latency it measures travels on the packet to Egress.
func (p *INTProgram) Ingress(ctx *netsim.ProcessorContext, pkt *netsim.Packet) {
	probe := pkt.Kind == netsim.KindProbe && pkt.Probe != nil
	var prevEgress time.Duration
	var stamped bool
	if probe {
		prevEgress, stamped = pkt.TakeEgressStamp()
	}
	pkt.SetLinkLatency(p.Observe(probe, ctx.OutPort, ctx.QueueLen, ctx.Now+p.cfg.ClockSkew, prevEgress, stamped))
	if p.cfg.PerPacket && (pkt.Kind == netsim.KindData || pkt.Kind == netsim.KindDatagram) {
		p.embedPerPacket(ctx, pkt)
	}
}

// Egress implements netsim.Processor: the simulator's call into Stamp,
// followed by the egress timestamp the next hop measures its link from.
func (p *INTProgram) Egress(ctx *netsim.ProcessorContext, pkt *netsim.Packet) {
	if pkt.Kind != netsim.KindProbe || pkt.Probe == nil {
		return
	}
	now := ctx.Now + p.cfg.ClockSkew
	p.Stamp(pkt.Probe, Hop{
		InPort:      ctx.InPort,
		OutPort:     ctx.OutPort,
		LinkLatency: pkt.LinkLatency(),
		HopLatency:  ctx.Now - pkt.IngressAt(),
		Now:         now,
	})
	pkt.StampEgress(now)
}

// embedPerPacket appends a classic INT record to a production packet,
// growing its wire size — the per-packet overhead the paper's register
// staging avoids.
func (p *INTProgram) embedPerPacket(ctx *netsim.ProcessorContext, pkt *netsim.Packet) {
	if pkt.Probe == nil {
		pkt.Probe = &telemetry.ProbePayload{
			Origin: string(pkt.Src),
			Target: string(pkt.Dst),
			Seq:    pkt.ID,
			SentAt: pkt.SentAt,
		}
	}
	pkt.Probe.Stack.Append(telemetry.Record{
		Device:      p.deviceID,
		IngressPort: ctx.InPort,
		EgressPort:  ctx.OutPort,
		Queues: []telemetry.PortQueue{
			{Port: ctx.OutPort, MaxQueue: ctx.QueueLen, Packets: 1},
		},
	})
	pkt.Size += DefaultPerHopBytes
	p.OverheadBytes += DefaultPerHopBytes
}

// NewPipeline returns program, which is itself the netsim.Processor to put
// on a switch. It survives only because bench/, which this repository's PRs
// may not edit, spells NewPipeline(NewINTProgram(...)); drop it when bench/
// next changes (ROADMAP item 6).
func NewPipeline(program *INTProgram) *INTProgram { return program }

// AttachINT installs an INT program on every switch in the network and
// returns the per-switch programs keyed by node ID.
func AttachINT(net *netsim.Network, cfg INTConfig) map[netsim.NodeID]*INTProgram {
	programs := make(map[netsim.NodeID]*INTProgram)
	for _, id := range net.Switches() {
		sw := net.Node(id)
		prog := NewINTProgram(string(id), len(sw.Ports), cfg)
		sw.Processor = prog
		programs[id] = prog
	}
	return programs
}

// PerPacketINTOverhead computes, for the classic per-packet INT embedding
// the paper argues against, the fraction of payload consumed by telemetry
// when each of hops devices appends fields of fieldBytes each to a packet
// of packetBytes. With 2 fields × 4 bytes over 5 switches on a 1000-byte
// packet this reproduces the paper's 4.2% figure (40/960 ≈ 4.2%).
func PerPacketINTOverhead(hops, fields, fieldBytes, packetBytes int) float64 {
	if packetBytes <= 0 {
		return 0
	}
	telemetryBytes := hops * fields * fieldBytes
	if telemetryBytes >= packetBytes {
		return 1
	}
	return float64(telemetryBytes) / float64(packetBytes-telemetryBytes)
}
