package transport

import (
	"time"

	"intsched/internal/netsim"
	"intsched/internal/simtime"
)

// CBRPacketSize is the on-wire size of an iperf-style datagram.
const CBRPacketSize = 1500

// DefaultBurst is the number of back-to-back packets emitted per burst.
// Real iperf/UDP senders are bursty (socket buffers, timer quantization, OS
// scheduling), which is what makes egress queues build up in proportion to
// utilization — the effect the paper's Fig 3 measures. A perfectly paced
// CBR source would never queue below 100% utilization.
const DefaultBurst = 8

// CBRConfig tunes a constant-bit-rate datagram flow.
type CBRConfig struct {
	// RateBps is the target sending rate in bits per second.
	RateBps int64
	// Jitter, when set, switches the flow to Poisson pacing: inter-packet
	// gaps are exponential with the mean matching RateBps. This models
	// the arrival variability of a real iperf UDP sender (socket buffers,
	// timer quantization, OS scheduling) and is what makes egress queues
	// grow with utilization. When nil, the flow sends deterministic
	// back-to-back bursts instead.
	Jitter *simtime.Rand
	// Burst is the number of packets sent back-to-back each burst interval
	// in deterministic mode (DefaultBurst when zero). Ignored with Jitter.
	Burst int
	// Duration stops the flow after this much time (runs until Stop when
	// zero).
	Duration time.Duration
	// PacketSize overrides the datagram size (CBRPacketSize when zero).
	PacketSize int
}

// CBR is an iperf-like unreliable constant-bit-rate flow.
type CBR struct {
	stack  *Stack
	dst    netsim.NodeID
	cfg    CBRConfig
	flowID uint64

	ticker  *simtime.Ticker
	meanGap float64
	stopped bool

	// PacketsSent and BytesSent count emitted traffic.
	PacketsSent uint64
	BytesSent   uint64
	// Started and Stopped record the flow's lifetime.
	Started   time.Duration
	StoppedAt time.Duration
	// OnStop fires once when the flow ends (by duration or Stop).
	OnStop func(*CBR)
}

// StartCBR begins an iperf-style datagram flow from this host to dst.
func (s *Stack) StartCBR(dst netsim.NodeID, cfg CBRConfig) *CBR {
	if cfg.RateBps <= 0 {
		panic("transport: CBR rate must be positive")
	}
	if cfg.Burst <= 0 {
		cfg.Burst = DefaultBurst
	}
	if cfg.PacketSize <= 0 {
		cfg.PacketSize = CBRPacketSize
	}
	c := &CBR{
		stack:   s,
		dst:     dst,
		cfg:     cfg,
		flowID:  s.domain.allocFlowID(),
		Started: s.now(),
	}
	if cfg.Jitter != nil {
		// Poisson pacing: exponential gaps with mean packet-time/rate.
		c.meanGap = float64(cfg.PacketSize*8) / float64(cfg.RateBps) * float64(time.Second)
		c.scheduleNext()
	} else {
		// One burst of B packets every (B * bits-per-packet / rate)
		// seconds keeps the long-run average at RateBps while preserving
		// burstiness.
		bitsPerBurst := float64(cfg.Burst * cfg.PacketSize * 8)
		interval := time.Duration(bitsPerBurst / float64(cfg.RateBps) * float64(time.Second))
		if interval <= 0 {
			interval = time.Microsecond
		}
		// First burst goes out immediately; the ticker then sustains the
		// rate.
		c.sendBurst()
		c.ticker = s.domain.engine.NewTicker(interval, c.sendBurst)
	}
	if cfg.Duration > 0 {
		s.domain.engine.After(cfg.Duration, c.Stop)
	}
	return c
}

// scheduleNext emits one packet and schedules the next with an exponential
// gap (Poisson pacing).
func (c *CBR) scheduleNext() {
	if c.stopped {
		return
	}
	c.sendOne()
	gap := time.Duration(c.cfg.Jitter.Exp(c.meanGap))
	c.stack.domain.engine.AfterWith(gap, cbrNext, c)
}

// cbrNext is the event fn of every Poisson-paced CBR flow: bound once, so a
// packet's pacing event builds no method value.
func cbrNext(arg any) { arg.(*CBR).scheduleNext() }

// Dst returns the flow's destination.
func (c *CBR) Dst() netsim.NodeID { return c.dst }

// Active reports whether the flow is still sending.
func (c *CBR) Active() bool { return !c.stopped }

func (c *CBR) sendBurst() {
	if c.stopped {
		return
	}
	for i := 0; i < c.cfg.Burst; i++ {
		c.sendOne()
	}
}

func (c *CBR) sendOne() {
	pkt := c.stack.domain.net.NewPacket(netsim.KindDatagram, c.stack.host.ID, c.dst, c.cfg.PacketSize).MarkTransient()
	pkt.FlowID = c.flowID
	pkt.Seq = int64(c.PacketsSent)
	c.PacketsSent++
	c.BytesSent += uint64(c.cfg.PacketSize)
	_ = c.stack.domain.net.Send(pkt)
}

// Stop halts the flow. Safe to call multiple times.
func (c *CBR) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	c.StoppedAt = c.stack.now()
	if c.ticker != nil {
		c.ticker.Stop()
	}
	if c.OnStop != nil {
		c.OnStop(c)
	}
}
