// Package dataplane is the paper's INT collection program, written once and
// run by both runtimes: the simulator's switches (sim.go adapts it to
// netsim.Processor) and the real-socket soft switch (live.SoftSwitch).
//
// The program has two entry points. Observe is the ingress stage: every
// production packet raises the max-queue register of its egress port and
// counts itself, and a probe has its arrival link's latency taken before it
// is enqueued. Stamp is the egress stage of a probe: the device claims its
// hop index, flushes the registers into an INT record and resets them.
// Production packets are never modified, so INT adds zero bytes to regular
// traffic — the register-staging scheme that is the paper's key collection
// idea.
//
// Whatever differs between the runtimes — ports, hop and link latency, the
// device's clock reading — is an argument. The program takes no lock: the
// simulator calls it from its one event loop, and the soft switch, which has
// goroutines, serializes its calls itself.
package dataplane

import (
	"math"
	"time"

	"intsched/internal/telemetry"
)

// INTConfig tunes the INT telemetry program.
type INTConfig struct {
	// ClockSkew is added to every clock reading the simulator hands the
	// program for this device, modeling imperfect NTP sync between devices.
	// Zero means a perfect clock.
	ClockSkew time.Duration
	// PerPacket switches the simulated switch to classic per-packet INT
	// embedding — the approach the paper argues against: every switch
	// appends a telemetry record to every DATA packet (growing it by
	// DefaultPerHopBytes on the wire), and the destination host extracts the
	// stack. Register staging still runs for probes, but in this mode
	// visibility comes from production traffic itself: only paths that carry
	// traffic are observed, and every packet pays the telemetry tax.
	PerPacket bool
}

// INTProgram is the telemetry program of one switch: its registers and the
// two stages that touch them. It is not safe for concurrent use.
type INTProgram struct {
	deviceID string
	cfg      INTConfig

	// Registers, one cell per egress port, accumulating since the port was
	// last flushed into a record.
	maxQueue []int64 // largest queue occupancy a production packet met
	pktCount []int64 // production packets forwarded

	// OverheadBytes counts wire bytes added to production packets in
	// per-packet mode (always zero with register staging — the paper's
	// headline collection property).
	OverheadBytes uint64
}

// NewINTProgram creates the telemetry program for a switch with numPorts
// ports.
func NewINTProgram(deviceID string, numPorts int, cfg INTConfig) *INTProgram {
	return &INTProgram{
		deviceID: deviceID,
		cfg:      cfg,
		maxQueue: make([]int64, numPorts),
		pktCount: make([]int64, numPorts),
	}
}

// Observe is the ingress stage, run after the forwarding decision and before
// the packet joins outPort's queue, which holds queueLen packets. A
// production packet raises the port's max-queue register and counts itself.
// A probe leaves the registers alone — only production traffic drives the
// congestion registers, matching the paper's iperf-driven measurements — and
// instead has the arrival link's latency taken here, ahead of the queue, so
// the measurement excludes this device's queueing: now is the device's clock
// and prevEgress the stamp the previous device wrote at its egress (stamped
// false when there was none). Skewed clocks can drive the difference
// negative; it is clamped at zero. The caller carries the result with the
// packet to Stamp.
func (p *INTProgram) Observe(probe bool, outPort, queueLen int, now, prevEgress time.Duration, stamped bool) (linkLatency time.Duration) {
	if !probe {
		if q := int64(queueLen); q > p.maxQueue[outPort] {
			p.maxQueue[outPort] = q
		}
		p.pktCount[outPort]++
		return 0
	}
	if !stamped || now < prevEgress {
		return 0
	}
	return now - prevEgress
}

// Hop is one probe's passage through the device, as its runtime measured it.
type Hop struct {
	// InPort and OutPort are the ports the probe arrived on and leaves by.
	InPort, OutPort int
	// LinkLatency is Observe's result for this probe.
	LinkLatency time.Duration
	// HopLatency is the time from ingress to the head of the egress queue.
	HopLatency time.Duration
	// Now is the device's clock, written as the record's egress timestamp.
	Now time.Duration
}

// Stamp is the egress stage of a probe, run when it reaches the head of its
// egress queue. The device claims the next hop index and, while the probe
// has room, flushes its registers into one appended record and resets them;
// a full probe is marked Truncated and the registers keep accumulating for
// the next probe. The slot is filled in place and keeps its Queues backing
// array, so a caller that decodes into a reused payload allocates nothing
// here.
func (p *INTProgram) Stamp(probe *telemetry.ProbePayload, h Hop) {
	hopIdx := probe.HopCount
	if probe.HopCount < math.MaxUint8 {
		probe.HopCount++
	}

	recs := probe.Stack.Records
	if len(recs) >= telemetry.MaxRecords {
		probe.Stack.Truncated = true
		return
	}
	if len(recs) < cap(recs) {
		recs = recs[:len(recs)+1]
	} else {
		recs = append(recs, telemetry.Record{})
	}
	probe.Stack.Records = recs
	rec := &recs[len(recs)-1]

	queues := rec.Queues[:0]
	if cap(queues) < len(p.maxQueue) {
		queues = make([]telemetry.PortQueue, 0, len(p.maxQueue))
	}
	for port, mq := range p.maxQueue {
		queues = append(queues, telemetry.PortQueue{Port: port, MaxQueue: int(mq), Packets: uint32(p.pktCount[port])})
		p.maxQueue[port], p.pktCount[port] = 0, 0
	}
	*rec = telemetry.Record{
		Device:      p.deviceID,
		HopIndex:    hopIdx,
		IngressPort: h.InPort,
		EgressPort:  h.OutPort,
		Queues:      queues,
		HopLatency:  h.HopLatency,
		LinkLatency: h.LinkLatency,
		EgressTS:    h.Now,
	}
}
