package live

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"intsched/internal/telemetry"
	"intsched/internal/wire"
)

// ProbeAgent is the live probe emitter running on an edge server: every
// interval it sends one Geneve-marked probe datagram toward the collector
// through the server's attached soft switch.
type ProbeAgent struct {
	id        string
	collector string
	conn      *net.UDPConn
	uplink    *net.UDPAddr

	// adaptive gates cadence directives: until EnableAdaptive, directive
	// datagrams are dropped like any other unexpected kind, so a
	// new-collector/old-agent (or unconfigured) pairing degrades to the
	// static cadence rather than erroring — the v1-compat default.
	adaptive atomic.Bool
	// ticker drives the periodic prober; created in Start so directive
	// handling (which Resets it) and the probe loop share one instance.
	ticker *time.Ticker

	mu         sync.Mutex
	interval   time.Duration // current probe cadence, guarded by mu after Start
	lastDirSeq uint64        // newest applied directive sequence number
	applied    uint64        // directives applied
	seq        uint64
	encBuf     []byte // probe encode scratch, guarded by mu
	pings      map[int64]chan time.Duration
	closed     chan struct{}
	wg         sync.WaitGroup
	paused     atomic.Bool

	// Sent counts emitted probes.
	Sent uint64
}

// NewProbeAgent creates an agent for edge server id attached to the soft
// switch at uplinkAddr, probing toward collector every interval.
func NewProbeAgent(id, uplinkAddr, collector string, interval time.Duration) (*ProbeAgent, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	up, err := net.ResolveUDPAddr("udp", uplinkAddr)
	if err != nil {
		return nil, fmt.Errorf("live: agent %s: %w", id, err)
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("live: agent %s: %w", id, err)
	}
	return &ProbeAgent{
		id:        id,
		collector: collector,
		conn:      conn,
		uplink:    up,
		interval:  interval,
		pings:     make(map[int64]chan time.Duration),
		closed:    make(chan struct{}),
	}, nil
}

// ID returns the agent's node name.
func (a *ProbeAgent) ID() string { return a.id }

// Addr returns the agent's bound UDP address (the switch's return path).
func (a *ProbeAgent) Addr() string { return a.conn.LocalAddr().String() }

// Start launches the periodic prober and a receive loop: the agent answers
// overlay pings, resolves its own pending pings, and discards other
// traffic addressed to this host (the agent doubles as the host's traffic
// sink).
func (a *ProbeAgent) Start() {
	a.ticker = time.NewTicker(a.interval)
	a.wg.Add(2)
	go func() {
		defer a.wg.Done()
		defer a.ticker.Stop()
		for {
			select {
			case <-a.ticker.C:
				if !a.paused.Load() {
					_ = a.EmitProbe()
				}
			case <-a.closed:
				return
			}
		}
	}()
	go func() {
		defer a.wg.Done()
		buf := make([]byte, maxDatagram)
		for {
			n, _, err := a.conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			d, err := wire.UnmarshalDatagram(buf[:n])
			if err != nil {
				continue
			}
			a.handle(d)
		}
	}()
}

// handle processes an overlay datagram delivered to this host.
func (a *ProbeAgent) handle(d *wire.Datagram) {
	switch d.Kind {
	case wire.KindPing:
		pong := &wire.Datagram{
			Kind:     wire.KindPong,
			TTL:      wire.DefaultTTL,
			Src:      a.id,
			Dst:      d.Src,
			SentAtNs: d.SentAtNs, // echo the cookie for RTT matching
		}
		if buf, err := pong.Marshal(); err == nil {
			_, _ = a.conn.WriteToUDP(buf, a.uplink)
		}
	case wire.KindPong:
		a.mu.Lock()
		ch := a.pings[d.SentAtNs]
		delete(a.pings, d.SentAtNs)
		a.mu.Unlock()
		if ch != nil {
			ch <- time.Duration(time.Now().UnixNano() - d.SentAtNs)
		}
	case wire.KindDirective:
		// Cadence directives ride the probe return path. They only apply
		// after explicit opt-in; malformed frames decode as no-directive and
		// stale sequence numbers are ignored, so reordered or replayed
		// datagrams cannot roll the cadence back.
		if !a.adaptive.Load() {
			return
		}
		dir, ok := telemetry.DecodeDirective(d.Payload)
		if !ok {
			return
		}
		a.mu.Lock()
		if dir.Seq <= a.lastDirSeq || dir.Interval == a.interval {
			if dir.Seq > a.lastDirSeq {
				a.lastDirSeq = dir.Seq
			}
			a.mu.Unlock()
			return
		}
		a.lastDirSeq = dir.Seq
		a.interval = dir.Interval
		a.applied++
		a.mu.Unlock()
		a.ticker.Reset(dir.Interval)
	}
}

// EnableAdaptive opts the agent into collector-driven cadence directives.
// Without it the agent keeps its configured static interval and drops
// directive datagrams — the v1-compat default.
func (a *ProbeAgent) EnableAdaptive() { a.adaptive.Store(true) }

// Interval returns the agent's current probe cadence.
func (a *ProbeAgent) Interval() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.interval
}

// DirectivesApplied returns how many cadence directives changed the agent's
// interval.
func (a *ProbeAgent) DirectivesApplied() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.applied
}

// Ping measures the overlay round-trip time to another host (whose agent
// answers with a pong), the live analogue of the Fig 3 ping measurements.
func (a *ProbeAgent) Ping(dst string, timeout time.Duration) (time.Duration, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	cookie := time.Now().UnixNano()
	ch := make(chan time.Duration, 1)
	a.mu.Lock()
	a.pings[cookie] = ch
	a.mu.Unlock()
	req := &wire.Datagram{
		Kind:     wire.KindPing,
		TTL:      wire.DefaultTTL,
		Src:      a.id,
		Dst:      dst,
		SentAtNs: cookie,
	}
	buf, err := req.Marshal()
	if err != nil {
		return 0, err
	}
	if _, err := a.conn.WriteToUDP(buf, a.uplink); err != nil {
		return 0, err
	}
	select {
	case rtt := <-ch:
		return rtt, nil
	case <-time.After(timeout):
		a.mu.Lock()
		delete(a.pings, cookie)
		a.mu.Unlock()
		return 0, fmt.Errorf("live: ping %s -> %s timed out", a.id, dst)
	case <-a.closed:
		return 0, fmt.Errorf("live: agent closed")
	}
}

// SetPaused suspends (true) or resumes (false) the periodic prober while
// the agent keeps answering pings — a controllable telemetry outage for
// health-model tests and failure drills.
func (a *ProbeAgent) SetPaused(paused bool) { a.paused.Store(paused) }

// EmitProbe sends a single probe immediately (also used by tests).
func (a *ProbeAgent) EmitProbe() error {
	now := time.Now()
	a.mu.Lock()
	a.seq++
	payload := telemetry.ProbePayload{
		Origin: a.id,
		Seq:    a.seq,
		SentAt: time.Duration(now.UnixNano()),
	}
	// Encode into the agent's reusable buffer; the datagram Marshal below
	// copies the payload out before the lock (and with it the buffer) is
	// released for the next emission.
	encoded, err := telemetry.AppendProbe(a.encBuf[:0], &payload)
	a.encBuf = encoded
	if err != nil {
		a.mu.Unlock()
		return err
	}
	d := &wire.Datagram{
		Kind:     wire.KindProbe,
		TTL:      wire.DefaultTTL,
		Src:      a.id,
		Dst:      a.collector,
		SentAtNs: now.UnixNano(),
		// Hosts stamp outgoing probes so the first link is measurable.
		EgressTS: now.UnixNano(),
		Payload:  encoded,
	}
	buf, err := d.Marshal()
	a.mu.Unlock()
	if err != nil {
		return err
	}
	if _, err := a.conn.WriteToUDP(buf, a.uplink); err != nil {
		return err
	}
	a.mu.Lock()
	a.Sent++
	a.mu.Unlock()
	return nil
}

// Close stops the agent.
func (a *ProbeAgent) Close() {
	select {
	case <-a.closed:
		return
	default:
	}
	close(a.closed)
	a.conn.Close()
	a.wg.Wait()
}

// TrafficSource blasts datagrams through the overlay to create congestion
// (the live analogue of the simulator's iperf CBR flows).
type TrafficSource struct {
	id     string
	conn   *net.UDPConn
	uplink *net.UDPAddr
}

// NewTrafficSource creates a datagram source for node id attached to the
// soft switch at uplinkAddr.
func NewTrafficSource(id, uplinkAddr string) (*TrafficSource, error) {
	up, err := net.ResolveUDPAddr("udp", uplinkAddr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	return &TrafficSource{id: id, conn: conn, uplink: up}, nil
}

// Addr returns the source's bound UDP address.
func (t *TrafficSource) Addr() string { return t.conn.LocalAddr().String() }

// Blast sends count datagrams of size payloadBytes toward dst back-to-back.
func (t *TrafficSource) Blast(dst string, count, payloadBytes int) error {
	payload := make([]byte, payloadBytes)
	for i := 0; i < count; i++ {
		d := &wire.Datagram{
			Kind:     wire.KindData,
			TTL:      wire.DefaultTTL,
			Src:      t.id,
			Dst:      dst,
			SentAtNs: time.Now().UnixNano(),
			Payload:  payload,
		}
		buf, err := d.Marshal()
		if err != nil {
			return err
		}
		if _, err := t.conn.WriteToUDP(buf, t.uplink); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the source's socket.
func (t *TrafficSource) Close() { t.conn.Close() }
