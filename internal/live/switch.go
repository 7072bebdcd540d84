// Package live is the real-socket deployment of the INT scheduling system:
// userspace soft switches forward UDP overlay datagrams between rate-limited
// egress queues and run the one INT program (internal/dataplane) the
// simulated switches run — Observe on the receive goroutine, Stamp on the
// egress port's drain goroutine, serialized by a lock the switch owns; probe
// agents emit probes from edge servers; the collector daemon ingests probes,
// maintains the learned topology, and serves ranking queries over TCP.
//
// This is the "wire the INT collector manually" path: the same telemetry
// model as the simulator, but over real packets, goroutines, and sockets —
// runnable on loopback (see examples/livedemo) or across machines.
package live

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"intsched/internal/dataplane"
	"intsched/internal/telemetry"
	"intsched/internal/wire"
)

// Defaults for soft-switch construction.
const (
	// DefaultRateBps mirrors the paper's effective BMv2 forwarding rate.
	DefaultRateBps int64 = 20_000_000
	// DefaultQueueCap matches the simulator's per-port queue depth.
	DefaultQueueCap = 64
	// maxDatagram bounds received overlay datagrams.
	maxDatagram = 9000
)

// frame is one queued overlay packet with its ingress bookkeeping.
type frame struct {
	d         *wire.Datagram
	size      int
	ingressAt time.Time
	linkLat   time.Duration // the INT program's ingress measurement (probes)
	inPort    int
}

// swPort is one egress port: a bounded queue drained at the port rate.
type swPort struct {
	index    int
	neighbor string
	addr     *net.UDPAddr
	ch       chan frame

	// Stats (atomic not needed: single writer per counter).
	mu        sync.Mutex
	txPackets uint64
	drops     uint64

	// Scratch reused by stampProbe, which only ever runs on this port's
	// drain goroutine: decode target (whose record slots the INT program
	// fills in place, so a stamped probe allocates nothing), and the encode
	// buffer the outgoing payload points into until the datagram is
	// marshalled for the wire.
	probeScratch telemetry.ProbePayload
	encScratch   []byte
}

// SoftSwitch is a userspace P4-style switch over UDP.
type SoftSwitch struct {
	id   string
	conn *net.UDPConn

	rateBps  int64
	queueCap int

	mu       sync.Mutex
	ports    []*swPort
	routes   map[string]int // dst node -> egress port
	addrPort map[string]int // remote UDP addr -> ingress port index

	// intMu serializes calls into the INT program, which takes no lock of
	// its own: the receive goroutine observes while the drain goroutines
	// stamp. The program is created by Start, once the port count is final.
	intMu sync.Mutex
	prog  *dataplane.INTProgram

	rxWg    sync.WaitGroup // receive loop
	drainWg sync.WaitGroup // per-port drain goroutines
	closed  chan struct{}
	started bool

	// forwarded counts datagrams enqueued for egress; drops counts those
	// discarded (no route, TTL, queue full, decode and encode errors). Both
	// are written by the switch's goroutines and read through Counters.
	forwarded, drops atomic.Uint64
}

// NewSoftSwitch binds a UDP socket on addr (use "127.0.0.1:0" for an
// ephemeral port). rateBps and queueCap of zero take the defaults.
func NewSoftSwitch(id, addr string, rateBps int64, queueCap int) (*SoftSwitch, error) {
	if rateBps <= 0 {
		rateBps = DefaultRateBps
	}
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: switch %s: %w", id, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("live: switch %s: %w", id, err)
	}
	return &SoftSwitch{
		id:       id,
		conn:     conn,
		rateBps:  rateBps,
		queueCap: queueCap,
		routes:   make(map[string]int),
		addrPort: make(map[string]int),
		closed:   make(chan struct{}),
	}, nil
}

// ID returns the switch identifier.
func (s *SoftSwitch) ID() string { return s.id }

// Addr returns the switch's bound UDP address.
func (s *SoftSwitch) Addr() string { return s.conn.LocalAddr().String() }

// AddPort attaches an egress port toward neighbor at the given UDP address
// and returns its index. Ports must be added before Start.
func (s *SoftSwitch) AddPort(neighbor, addr string) (int, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return -1, fmt.Errorf("live: switch %s port to %s: %w", s.id, neighbor, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return -1, fmt.Errorf("live: switch %s: AddPort after Start", s.id)
	}
	p := &swPort{
		index:    len(s.ports),
		neighbor: neighbor,
		addr:     udpAddr,
		ch:       make(chan frame, s.queueCap),
	}
	s.ports = append(s.ports, p)
	s.addrPort[udpAddr.String()] = p.index
	return p.index, nil
}

// SetRoute installs dst -> port forwarding.
func (s *SoftSwitch) SetRoute(dst string, port int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if port < 0 || port >= len(s.ports) {
		return fmt.Errorf("live: switch %s: route %s via invalid port %d", s.id, dst, port)
	}
	s.routes[dst] = port
	return nil
}

// Start launches the receive loop and per-port drain goroutines.
func (s *SoftSwitch) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	ports := s.ports
	s.prog = dataplane.NewINTProgram(s.id, len(ports), dataplane.INTConfig{})
	s.mu.Unlock()

	for _, p := range ports {
		s.drainWg.Add(1)
		go s.drain(p)
	}
	s.rxWg.Add(1)
	go s.receiveLoop()
}

// Close shuts the switch down and waits for its goroutines. The receive
// loop must fully exit before the port channels close (it enqueues into
// them).
func (s *SoftSwitch) Close() {
	select {
	case <-s.closed:
		return
	default:
	}
	close(s.closed)
	s.conn.Close()
	s.rxWg.Wait()
	s.mu.Lock()
	for _, p := range s.ports {
		close(p.ch)
	}
	s.mu.Unlock()
	s.drainWg.Wait()
}

func (s *SoftSwitch) receiveLoop() {
	defer s.rxWg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		d, err := wire.UnmarshalDatagram(buf[:n])
		if err != nil {
			s.drops.Add(1)
			continue
		}
		inPort := 0 // unknown senders report port 0: the wire codec requires a valid port
		if from != nil {
			s.mu.Lock()
			if idx, ok := s.addrPort[from.String()]; ok {
				inPort = idx
			}
			s.mu.Unlock()
		}
		s.handle(d, n, inPort)
	}
}

// handle implements the forwarding + INT ingress pipeline.
func (s *SoftSwitch) handle(d *wire.Datagram, size, inPort int) {
	if d.TTL == 0 {
		s.drops.Add(1)
		return
	}
	d.TTL--

	s.mu.Lock()
	portIdx, ok := s.routes[d.Dst]
	var port *swPort
	if ok {
		port = s.ports[portIdx]
	}
	s.mu.Unlock()
	if port == nil {
		s.drops.Add(1)
		return
	}

	// The INT ingress stage runs before the enqueue, so a probe's link
	// latency excludes this switch's queueing.
	now := time.Now()
	probe := d.Kind == wire.KindProbe
	var prevEgress time.Duration
	if probe {
		prevEgress, d.EgressTS = time.Duration(d.EgressTS), 0
	}
	s.intMu.Lock()
	linkLat := s.prog.Observe(probe, port.index, len(port.ch), time.Duration(now.UnixNano()), prevEgress, prevEgress > 0)
	s.intMu.Unlock()
	f := frame{d: d, size: size, ingressAt: now, linkLat: linkLat, inPort: inPort}

	select {
	case port.ch <- f:
		s.forwarded.Add(1)
	default:
		port.mu.Lock()
		port.drops++
		port.mu.Unlock()
		s.drops.Add(1)
	}
}

// drain transmits queued frames at the port rate, running INT egress
// processing on probes.
func (s *SoftSwitch) drain(p *swPort) {
	defer s.drainWg.Done()
	for f := range p.ch {
		if f.d.Kind == wire.KindProbe {
			s.stampProbe(p, &f)
			// Re-measure size after the INT record grew the payload.
			f.size = 22 + len(f.d.Src) + len(f.d.Dst) + len(f.d.Payload)
		}
		txTime := time.Duration(float64(f.size*8) / float64(s.rateBps) * float64(time.Second))
		if txTime > 0 {
			timer := time.NewTimer(txTime)
			select {
			case <-timer.C:
			case <-s.closed:
				timer.Stop()
				return
			}
		}
		out, err := f.d.Marshal()
		if err != nil {
			s.drops.Add(1)
			continue
		}
		if _, err := s.conn.WriteToUDP(out, p.addr); err != nil {
			return // socket closed
		}
		p.mu.Lock()
		p.txPackets++
		p.mu.Unlock()
	}
}

// stampProbe runs the INT egress stage on a probe: decode into the port's
// scratch payload, Stamp, re-encode. The payload is re-encoded even when the
// hop inserted no record, because the hop count advanced.
func (s *SoftSwitch) stampProbe(p *swPort, f *frame) {
	payload := &p.probeScratch
	if err := telemetry.UnmarshalProbeInto(payload, f.d.Payload); err != nil {
		return // malformed or sampled probe: forward untouched
	}
	now := time.Now()
	s.intMu.Lock()
	s.prog.Stamp(payload, dataplane.Hop{
		InPort:      f.inPort,
		OutPort:     p.index,
		LinkLatency: f.linkLat,
		HopLatency:  now.Sub(f.ingressAt),
		Now:         time.Duration(now.UnixNano()),
	})
	s.intMu.Unlock()
	if encoded, err := telemetry.AppendProbe(p.encScratch[:0], payload); err == nil {
		p.encScratch = encoded
		f.d.Payload = encoded
		f.d.EgressTS = now.UnixNano()
	}
}

// Counters returns how many datagrams the switch enqueued for egress and how
// many it discarded. Safe to call while the switch runs.
func (s *SoftSwitch) Counters() (forwarded, drops uint64) {
	return s.forwarded.Load(), s.drops.Load()
}

// PortStats returns (txPackets, drops) for a port.
func (s *SoftSwitch) PortStats(port int) (tx, drops uint64) {
	s.mu.Lock()
	p := s.ports[port]
	s.mu.Unlock()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.txPackets, p.drops
}
