// Package probe implements the INT probing subsystem: each edge server
// periodically emits a Geneve-marked, MTU-sized probe packet toward the
// scheduler. As a probe traverses the network, every switch's dataplane
// flushes its telemetry registers into the probe's INT stack (see the
// dataplane package); the scheduler's collector parses the arriving probes.
//
// The paper's default probing interval is 100 ms; Fig 9 sweeps the interval
// up to 30 s (a typical SNMP cadence) to quantify how telemetry freshness
// affects scheduling quality.
package probe

import (
	"time"

	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/telemetry"
)

// DefaultInterval is the paper's probing period.
const DefaultInterval = 100 * time.Millisecond

// Prober periodically emits probe packets from one host toward a collector
// host.
type Prober struct {
	net       *netsim.Network
	origin    netsim.NodeID
	collector netsim.NodeID
	ticker    *simtime.Ticker
	interval  time.Duration

	seq uint64
	// Sent counts emitted probes.
	Sent uint64
}

// NewProber creates and starts a prober from origin to collector with the
// given interval (DefaultInterval when zero). The first probe is emitted
// after one interval, mirroring a periodic cron-style sender.
func NewProber(nw *netsim.Network, origin, collector netsim.NodeID, interval time.Duration) *Prober {
	if interval <= 0 {
		interval = DefaultInterval
	}
	p := &Prober{net: nw, origin: origin, collector: collector, interval: interval}
	p.ticker = nw.Engine().NewTicker(interval, p.emit)
	return p
}

// Origin returns the probing host.
func (p *Prober) Origin() netsim.NodeID { return p.origin }

// Target returns the host the prober sends toward — the stream's target in
// the collector's (origin, target) keying.
func (p *Prober) Target() netsim.NodeID { return p.collector }

// Interval returns the current probing period.
func (p *Prober) Interval() time.Duration { return p.interval }

// SetInterval changes the probing period.
func (p *Prober) SetInterval(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	p.interval = interval
	p.ticker.SetPeriod(interval)
}

// Stop halts the prober.
func (p *Prober) Stop() { p.ticker.Stop() }

// emit sends one probe packet.
func (p *Prober) emit() {
	p.seq++
	pkt := p.net.NewPacket(netsim.KindProbe, p.origin, p.collector, telemetry.ProbePacketSize)
	pkt.Probe = &telemetry.ProbePayload{
		Origin: string(p.origin),
		Target: string(p.collector),
		Seq:    p.seq,
		SentAt: p.net.Now(),
	}
	p.Sent++
	_ = p.net.Send(pkt)
}

// Fleet manages the probers of all edge servers in an experiment so their
// interval can be swept together (Fig 9).
type Fleet struct {
	probers []*Prober
}

// NewFleet starts one prober per origin toward collector. Origins equal to
// the collector itself are skipped (the scheduler does not probe itself).
func NewFleet(nw *netsim.Network, origins []netsim.NodeID, collector netsim.NodeID, interval time.Duration) *Fleet {
	f := &Fleet{}
	for _, o := range origins {
		if o == collector {
			continue
		}
		f.probers = append(f.probers, NewProber(nw, o, collector, interval))
	}
	return f
}

// Probers returns the managed probers.
func (f *Fleet) Probers() []*Prober { return f.probers }

// SetInterval updates every prober's period.
func (f *Fleet) SetInterval(interval time.Duration) {
	for _, p := range f.probers {
		p.SetInterval(interval)
	}
}

// SetStreamInterval updates the period of the single prober matching the
// (origin, target) stream key, reporting whether one was found — the
// application point for adaptive cadence directives. The fleet is small
// (one prober per edge host), so a linear scan beats maintaining an index.
func (f *Fleet) SetStreamInterval(origin, target string, interval time.Duration) bool {
	for _, p := range f.probers {
		if string(p.origin) == origin && string(p.collector) == target {
			p.SetInterval(interval)
			return true
		}
	}
	return false
}

// StreamInterval returns the current period of the prober matching the
// (origin, target) stream key, and whether one exists.
func (f *Fleet) StreamInterval(origin, target string) (time.Duration, bool) {
	for _, p := range f.probers {
		if string(p.origin) == origin && string(p.collector) == target {
			return p.interval, true
		}
	}
	return 0, false
}

// Stop halts every prober.
func (f *Fleet) Stop() {
	for _, p := range f.probers {
		p.Stop()
	}
}

// TotalSent returns the number of probes emitted across the fleet.
func (f *Fleet) TotalSent() uint64 {
	var n uint64
	for _, p := range f.probers {
		n += p.Sent
	}
	return n
}
