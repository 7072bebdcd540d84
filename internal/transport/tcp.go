package transport

import (
	"time"

	"intsched/internal/netsim"
	"intsched/internal/simtime"
)

// Congestion-control constants (Reno-style).
const (
	initialCwnd     = 4.0 // segments (RFC 6928 scaled down for small BDPs)
	initialSsthresh = 64.0
	minCwnd         = 1.0
	dupAckThresh    = 3

	initialRTO = 1 * time.Second
	minRTO     = 200 * time.Millisecond
	maxRTO     = 60 * time.Second
)

// FlowStats summarizes a completed (or failed) transfer.
type FlowStats struct {
	FlowID      uint64
	Src, Dst    netsim.NodeID
	Bytes       int64
	Start, End  time.Duration
	Retransmits int
	Timeouts    int
	SRTT        time.Duration
}

// Duration returns the flow completion time.
func (f FlowStats) Duration() time.Duration { return f.End - f.Start }

// ThroughputBps returns the achieved goodput in bits per second.
func (f FlowStats) ThroughputBps() float64 {
	d := f.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(f.Bytes*8) / d
}

// Flow is the sender-side handle of a reliable transfer.
type Flow struct{ s *tcpSender }

// ID returns the network-unique flow ID.
func (f *Flow) ID() uint64 { return f.s.flowID }

// Done reports whether the transfer has completed.
func (f *Flow) Done() bool { return f.s.done }

// Stats returns the current stats snapshot.
func (f *Flow) Stats() FlowStats { return f.s.stats() }

// Transfer starts a reliable transfer of the given number of bytes from this
// host to dst. onComplete (may be nil) fires once when the final byte is
// acknowledged.
func (s *Stack) Transfer(dst netsim.NodeID, bytes int64, onComplete func(FlowStats)) *Flow {
	if bytes <= 0 {
		bytes = 1
	}
	nseg := (bytes + MSS - 1) / MSS
	snd := &tcpSender{
		stack:      s,
		flowID:     s.domain.allocFlowID(),
		dst:        dst,
		totalBytes: bytes,
		nseg:       nseg,
		cwnd:       initialCwnd,
		ssthresh:   initialSsthresh,
		rto:        initialRTO,
		start:      s.now(),
		onComplete: onComplete,
		sendTimes:  make(map[int64]time.Duration),
	}
	s.senders[snd.flowID] = snd
	snd.pump()
	return &Flow{s: snd}
}

// tcpSender implements a simplified TCP Reno sender operating on whole
// segments: slow start, congestion avoidance, fast retransmit on three
// duplicate ACKs, and an RTO timer with exponential backoff and Karn's
// algorithm for RTT sampling.
type tcpSender struct {
	stack      *Stack
	flowID     uint64
	dst        netsim.NodeID
	totalBytes int64
	nseg       int64

	sndUna int64 // lowest unacknowledged segment
	sndNxt int64 // next segment to send

	cwnd     float64
	ssthresh float64
	dupAcks  int

	srtt, rttvar time.Duration
	hasSRTT      bool
	rto          time.Duration
	rtoTimer     simtime.Timer

	// sendTimes records first-transmission times for RTT sampling; an
	// entry is removed on retransmission (Karn's algorithm).
	sendTimes map[int64]time.Duration

	retransmits int
	timeouts    int
	start       time.Duration
	end         time.Duration
	done        bool
	onComplete  func(FlowStats)
}

func (t *tcpSender) stats() FlowStats {
	return FlowStats{
		FlowID:      t.flowID,
		Src:         t.stack.host.ID,
		Dst:         t.dst,
		Bytes:       t.totalBytes,
		Start:       t.start,
		End:         t.end,
		Retransmits: t.retransmits,
		Timeouts:    t.timeouts,
		SRTT:        t.srtt,
	}
}

// segSize returns the payload size of segment seq.
func (t *tcpSender) segSize(seq int64) int {
	if seq == t.nseg-1 {
		rem := int(t.totalBytes - seq*MSS)
		if rem > 0 && rem < MSS {
			return rem
		}
	}
	return MSS
}

// pump sends as many segments as the window allows.
func (t *tcpSender) pump() {
	if t.done {
		return
	}
	win := int64(t.cwnd)
	if win < 1 {
		win = 1
	}
	for t.sndNxt < t.nseg && t.sndNxt < t.sndUna+win {
		t.sendSegment(t.sndNxt, false)
		t.sndNxt++
	}
	t.armRTO()
}

func (t *tcpSender) sendSegment(seq int64, isRetransmit bool) {
	payload := t.segSize(seq)
	pkt := t.stack.domain.net.NewPacket(netsim.KindData, t.stack.host.ID, t.dst, payload+HeaderSize).MarkTransient()
	pkt.FlowID = t.flowID
	pkt.Seq = seq
	if isRetransmit {
		t.retransmits++
		delete(t.sendTimes, seq) // Karn: never sample retransmitted segments
	} else {
		t.sendTimes[seq] = t.stack.now()
	}
	_ = t.stack.domain.net.Send(pkt)
}

// onAck processes a cumulative acknowledgement: ack is the next segment the
// receiver expects (all segments < ack received).
func (t *tcpSender) onAck(ack int64) {
	if t.done {
		return
	}
	if ack > t.sndUna {
		// New data acknowledged.
		if sent, ok := t.sendTimes[ack-1]; ok {
			t.sampleRTT(t.stack.now() - sent)
		}
		for s := t.sndUna; s < ack; s++ {
			delete(t.sendTimes, s)
		}
		t.sndUna = ack
		t.dupAcks = 0
		t.rto = t.computeRTO() // reset backoff on progress
		if t.cwnd < t.ssthresh {
			t.cwnd++ // slow start: +1 per ACK
		} else {
			t.cwnd += 1 / t.cwnd // congestion avoidance: ~+1 per RTT
		}
		if t.sndUna >= t.nseg {
			t.finish()
			return
		}
		t.pump()
		return
	}
	// Duplicate ACK.
	t.dupAcks++
	if t.dupAcks == dupAckThresh {
		// Fast retransmit + (simplified) fast recovery.
		t.ssthresh = maxf(t.cwnd/2, 2)
		t.cwnd = t.ssthresh
		t.sendSegment(t.sndUna, true)
		t.armRTO()
	}
}

func (t *tcpSender) sampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !t.hasSRTT {
		t.srtt = rtt
		t.rttvar = rtt / 2
		t.hasSRTT = true
	} else {
		// Jacobson/Karels: alpha=1/8, beta=1/4.
		diff := t.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		t.rttvar = (3*t.rttvar + diff) / 4
		t.srtt = (7*t.srtt + rtt) / 8
	}
	t.rto = t.computeRTO()
}

func (t *tcpSender) computeRTO() time.Duration {
	if !t.hasSRTT {
		return initialRTO
	}
	rto := t.srtt + 4*t.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}

func (t *tcpSender) armRTO() {
	t.rtoTimer.Cancel()
	if t.done || t.sndUna >= t.nseg {
		return
	}
	t.rtoTimer = t.stack.domain.engine.AfterWith(t.rto, rtoExpired, t)
}

// rtoExpired is the event fn of every sender's retransmission timer: bound
// once, so re-arming the timer on each ACK builds no method value.
func rtoExpired(arg any) { arg.(*tcpSender).onTimeout() }

func (t *tcpSender) onTimeout() {
	if t.done || t.sndUna >= t.nseg {
		return
	}
	t.timeouts++
	t.ssthresh = maxf(t.cwnd/2, 2)
	t.cwnd = minCwnd
	t.dupAcks = 0
	t.rto *= 2
	if t.rto > maxRTO {
		t.rto = maxRTO
	}
	// Go-back-N from the hole.
	t.sndNxt = t.sndUna + 1
	t.sendSegment(t.sndUna, true)
	t.armRTO()
}

func (t *tcpSender) finish() {
	t.done = true
	t.end = t.stack.now()
	t.rtoTimer.Cancel()
	delete(t.stack.senders, t.flowID)
	if t.onComplete != nil {
		t.onComplete(t.stats())
	}
}

// tcpReceiver acknowledges every data segment with a cumulative ACK and
// buffers out-of-order arrivals.
type tcpReceiver struct {
	stack  *Stack
	flowID uint64
	peer   netsim.NodeID

	rcvNxt int64
	// buffered holds out-of-order segments' payload sizes until the
	// in-order head reaches them.
	buffered map[int64]int

	// BytesReceived counts distinct payload bytes received in order.
	BytesReceived int64
}

func newTCPReceiver(s *Stack, flowID uint64, peer netsim.NodeID) *tcpReceiver {
	return &tcpReceiver{stack: s, flowID: flowID, peer: peer, buffered: make(map[int64]int)}
}

func (r *tcpReceiver) onData(pkt *netsim.Packet) {
	seq := pkt.Seq
	if seq == r.rcvNxt {
		r.rcvNxt++
		r.BytesReceived += int64(pkt.Size - HeaderSize)
		for {
			size, ok := r.buffered[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.buffered, r.rcvNxt)
			r.BytesReceived += int64(size)
			r.rcvNxt++
		}
	} else if seq > r.rcvNxt {
		r.buffered[seq] = pkt.Size - HeaderSize
	}
	ack := r.stack.domain.net.NewPacket(netsim.KindAck, r.stack.host.ID, r.peer, AckSize).MarkTransient()
	ack.FlowID = r.flowID
	ack.Seq = r.rcvNxt
	_ = r.stack.domain.net.Send(ack)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
