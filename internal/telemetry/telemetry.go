// Package telemetry defines the In-band Network Telemetry (INT) data model
// used by the simulated P4 dataplane, the probing subsystem, and the
// scheduler-side collector: per-device telemetry records, the record stack
// carried by probe packets, and the probe payload itself.
//
// Following the paper, telemetry is *not* embedded in production packets.
// Switches stage telemetry in device registers and flush the registers into
// dedicated probe packets (Geneve-style marked UDP), which keeps the
// per-packet overhead of INT at zero for regular traffic.
package telemetry

import (
	"fmt"
	"strings"
	"time"
)

// PortQueue reports the egress-queue occupancy observed on one switch port
// since the registers were last flushed into a probe.
type PortQueue struct {
	// Port is the egress port index on the reporting device.
	Port int
	// MaxQueue is the maximum egress-queue occupancy (in packets) observed
	// for this port since the last register flush. The paper uses the
	// maximum rather than the mean because the mean washes out congestion
	// (most packets see an empty queue even on a saturated port).
	MaxQueue int
	// Packets counts data packets processed through this port since the
	// last flush; it lets the collector distinguish "queue was empty" from
	// "port saw no traffic".
	Packets uint32
}

// Record is the INT report appended by one network device to a probe packet
// as it traverses the device.
type Record struct {
	// Device is the reporting device (switch) identifier.
	Device string
	// HopIndex is the device's position on the probe's path (0-based from
	// the origin). Every device inserts its record, so the indices of one
	// probe's records are contiguous.
	HopIndex int
	// IngressPort and EgressPort are the probe's ports on this device.
	IngressPort int
	EgressPort  int
	// LinkLatency is the measured latency of the link the probe arrived on
	// (previous device's egress timestamp extracted at this device's
	// ingress, before enqueueing, so queueing delay is excluded). Zero on
	// the first hop.
	LinkLatency time.Duration
	// HopLatency is the probe's own residence time inside this device
	// (ingress to start of egress transmission), i.e. its queueing delay.
	HopLatency time.Duration
	// EgressTS is the device-local timestamp written as the probe starts
	// transmission out of this device.
	EgressTS time.Duration
	// Queues holds the flushed per-port register state of the device.
	Queues []PortQueue
}

// MaxQueueFor returns the flushed max queue occupancy for the given egress
// port, and whether the device reported that port at all.
func (r *Record) MaxQueueFor(port int) (int, bool) {
	for i := range r.Queues {
		if r.Queues[i].Port == port {
			return r.Queues[i].MaxQueue, true
		}
	}
	return 0, false
}

// Stack is the ordered list of INT records carried by a probe packet. Order
// is significant: consecutive records identify adjacent devices, which is
// what lets the collector infer the network topology.
type Stack struct {
	Records []Record
	// Truncated is set when a record could not be appended because the
	// probe's telemetry budget (MaxRecords) was exhausted.
	Truncated bool
}

// MaxRecords bounds the number of INT records a single probe can carry.
// A 1500-byte probe with ~34 bytes of fixed header leaves room for roughly
// 40 records at ~36 bytes each; we keep a conservative bound.
const MaxRecords = 40

// Append adds a record to the stack, respecting MaxRecords.
func (s *Stack) Append(rec Record) {
	if len(s.Records) >= MaxRecords {
		s.Truncated = true
		return
	}
	s.Records = append(s.Records, rec)
}

// Path returns the ordered device IDs the probe traversed.
func (s *Stack) Path() []string {
	out := make([]string, len(s.Records))
	for i := range s.Records {
		out[i] = s.Records[i].Device
	}
	return out
}

// String renders the stack compactly for logs and tests.
func (s *Stack) String() string {
	var b strings.Builder
	for i := range s.Records {
		r := &s.Records[i]
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s(in=%d,out=%d,link=%v,hop=%v)",
			r.Device, r.IngressPort, r.EgressPort, r.LinkLatency, r.HopLatency)
	}
	if s.Truncated {
		b.WriteString(" [truncated]")
	}
	return b.String()
}

// ProbePayload is the payload of a probe packet: identification plus the
// accumulated INT stack. Probes are emitted by edge servers toward the
// scheduler at a fixed interval (100 ms by default, per the paper).
type ProbePayload struct {
	// Origin is the edge server that emitted the probe.
	Origin string
	// Target is the host the probe is addressed to. Probes planned for
	// link coverage (the paper's probe-route-optimization future work)
	// may target a host other than the scheduler; that host relays the
	// payload to the collector.
	Target string
	// Seq is the per-origin probe sequence number.
	Seq uint64
	// HopCount counts every device the probe traversed: each device
	// increments it, including one that finds the stack full.
	HopCount int
	// SentAt is the origin-local emission timestamp.
	SentAt time.Duration
	// LastHopLatency is the final link's latency measured by the target
	// host (extraction of the last device's egress timestamp at arrival).
	// Zero when the collector itself is the target and measures directly.
	LastHopLatency time.Duration
	// Stack accumulates one Record per traversed device.
	Stack Stack
}

// GeneveMarker is the option class value that marks probe packets so P4
// parsers can distinguish them from regular traffic (the paper marks probes
// using Geneve-style IP header options).
const GeneveMarker uint16 = 0x0103

// ProbePacketSize is the on-wire size of a probe packet in bytes. Probes are
// padded to a full MTU so telemetry never grows the packet mid-path.
const ProbePacketSize = 1500
