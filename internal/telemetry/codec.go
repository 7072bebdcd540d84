package telemetry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// Binary wire format for probe payloads, shared by the simulator's overhead
// accounting and the live (real-socket) mode. All integers are big-endian.
//
//	header (version 2):
//	  magic      uint16  (GeneveMarker)
//	  version    uint8
//	  flags      uint8   (bit0: truncated)
//	  mode       uint8   (always 0; see ErrSampledProbe)
//	  sampleRate uint16  (always 0, ignored)
//	  hopCount   uint8   (devices traversed)
//	  seq        uint64
//	  sentAt     int64   (ns)
//	  lastHop    int64   (ns)
//	  originLen  uint8
//	  origin     []byte
//	  targetLen  uint8
//	  target     []byte
//	  numRecords uint8
//	records, each:
//	  hopIndex    uint8   (position on the path; absent in version 1)
//	  deviceLen   uint8
//	  device      []byte
//	  ingressPort uint8
//	  egressPort  uint8
//	  linkLatency int64 (ns)
//	  hopLatency  int64 (ns)
//	  egressTS    int64 (ns)
//	  numQueues   uint8
//	  queues, each: port uint8, maxQueue uint16, packets uint32
//
// Version 1 payloads (no mode/sampleRate/hopCount header fields, no
// per-record hopIndex) still decode: hop indices are the record positions
// and the hop count is the stack depth.
//
// Every device inserts its record into every probe, so the mode and
// sampleRate fields are always zero; they stay so the layout does not
// change under deployed agents. The decoder refuses a non-zero mode: such a
// probe's stack would be a sample of its path, not the path.

const codecVersion = 2

// Minimum wire sizes, used to reject forged record/queue counts before any
// scratch growth: a declared count whose minimum encoding exceeds the bytes
// actually remaining can only be malformed (or hostile) input.
const (
	minRecordWireV1 = 1 + 1 + 1 + 8 + 8 + 8 + 1 // empty device name, no queues
	minRecordWireV2 = minRecordWireV1 + 1       // + hopIndex
	queueWireSize   = 1 + 2 + 4
)

var (
	// ErrBadMagic is returned when a payload does not start with the
	// Geneve probe marker.
	ErrBadMagic = errors.New("telemetry: bad probe magic")
	// ErrTruncatedPayload is returned when a payload ends mid-field.
	ErrTruncatedPayload = errors.New("telemetry: truncated payload")
	// ErrSampledProbe is returned for a version-2 payload with a non-zero
	// mode byte: a sampled probe, whose stack is not its whole path.
	ErrSampledProbe = errors.New("telemetry: sampled probe (non-zero mode)")
)

// MarshalProbe encodes a probe payload into its wire format, allocating a
// fresh buffer. Hot paths that encode repeatedly should use AppendProbe with
// a reused buffer instead.
func MarshalProbe(p *ProbePayload) ([]byte, error) {
	return AppendProbe(make([]byte, 0, 64+len(p.Stack.Records)*48), p)
}

// AppendProbe encodes a probe payload into its wire format, appending to dst
// (which may be nil, or a previously returned buffer resliced to [:0] for
// reuse). It returns the extended buffer. On error dst is returned unchanged
// in length, so a reused buffer stays valid.
func AppendProbe(dst []byte, p *ProbePayload) ([]byte, error) {
	if len(p.Origin) > math.MaxUint8 {
		return dst, fmt.Errorf("telemetry: origin %q too long", p.Origin)
	}
	if len(p.Target) > math.MaxUint8 {
		return dst, fmt.Errorf("telemetry: target %q too long", p.Target)
	}
	if len(p.Stack.Records) > math.MaxUint8 {
		return dst, fmt.Errorf("telemetry: too many records (%d)", len(p.Stack.Records))
	}
	if p.HopCount < 0 || p.HopCount > math.MaxUint8 {
		return dst, fmt.Errorf("telemetry: hop count %d out of range", p.HopCount)
	}
	start := len(dst)
	buf := dst
	buf = binary.BigEndian.AppendUint16(buf, GeneveMarker)
	buf = append(buf, codecVersion)
	var flags byte
	if p.Stack.Truncated {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = append(buf, 0, 0, 0) // mode, sampleRate
	buf = append(buf, byte(p.HopCount))
	buf = binary.BigEndian.AppendUint64(buf, p.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.SentAt))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.LastHopLatency))
	buf = append(buf, byte(len(p.Origin)))
	buf = append(buf, p.Origin...)
	buf = append(buf, byte(len(p.Target)))
	buf = append(buf, p.Target...)
	buf = append(buf, byte(len(p.Stack.Records)))
	for i := range p.Stack.Records {
		r := &p.Stack.Records[i]
		if len(r.Device) > math.MaxUint8 {
			return dst[:start], fmt.Errorf("telemetry: device %q too long", r.Device)
		}
		if r.HopIndex < 0 || r.HopIndex > math.MaxUint8 {
			return dst[:start], fmt.Errorf("telemetry: hop index %d out of range in record for %q", r.HopIndex, r.Device)
		}
		if r.IngressPort < 0 || r.IngressPort > math.MaxUint8 ||
			r.EgressPort < 0 || r.EgressPort > math.MaxUint8 {
			return dst[:start], fmt.Errorf("telemetry: port out of range in record for %q", r.Device)
		}
		if len(r.Queues) > math.MaxUint8 {
			return dst[:start], fmt.Errorf("telemetry: too many queue reports for %q", r.Device)
		}
		buf = append(buf, byte(r.HopIndex))
		buf = append(buf, byte(len(r.Device)))
		buf = append(buf, r.Device...)
		buf = append(buf, byte(r.IngressPort), byte(r.EgressPort))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.LinkLatency))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.HopLatency))
		buf = binary.BigEndian.AppendUint64(buf, uint64(r.EgressTS))
		buf = append(buf, byte(len(r.Queues)))
		for _, q := range r.Queues {
			if q.Port < 0 || q.Port > math.MaxUint8 {
				return dst[:start], fmt.Errorf("telemetry: queue port %d out of range", q.Port)
			}
			mq := q.MaxQueue
			if mq < 0 {
				mq = 0
			}
			if mq > math.MaxUint16 {
				mq = math.MaxUint16
			}
			buf = append(buf, byte(q.Port))
			buf = binary.BigEndian.AppendUint16(buf, uint16(mq))
			buf = binary.BigEndian.AppendUint32(buf, q.Packets)
		}
	}
	return buf, nil
}

type reader struct {
	b   []byte
	off int
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.b) {
		return ErrTruncatedPayload
	}
	return nil
}

func (r *reader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) str() (string, error) {
	return r.strReuse("")
}

// strReuse reads a length-prefixed string, returning prev instead of
// allocating when the wire bytes match it — device and host names recur on
// every probe of a steady telemetry stream, so reused decodes hit this path
// almost always. The comparison below compiles to a byte compare without
// allocating the conversion.
func (r *reader) strReuse(prev string) (string, error) {
	n, err := r.u8()
	if err != nil {
		return "", err
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	raw := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	if prev == string(raw) {
		return prev, nil
	}
	return string(raw), nil
}

// UnmarshalProbe decodes a probe payload from its wire format into a fresh
// payload. Hot paths that decode repeatedly should reuse one payload via
// UnmarshalProbeInto instead.
func UnmarshalProbe(b []byte) (*ProbePayload, error) {
	p := &ProbePayload{}
	if err := UnmarshalProbeInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalProbeInto decodes a probe payload from its wire format into p,
// overwriting every field. The record and per-record queue slices already
// present in p are reused (grown only when the incoming payload is larger
// than any previously decoded one), and origin/target/device strings are
// reused when unchanged, so decoding a steady telemetry stream allocates
// nothing. On error p is left in an unspecified, partially overwritten
// state and must not be read — only reused for a later UnmarshalProbeInto
// call.
func UnmarshalProbeInto(p *ProbePayload, b []byte) error {
	r := &reader{b: b}
	magic, err := r.u16()
	if err != nil {
		return err
	}
	if magic != GeneveMarker {
		return ErrBadMagic
	}
	ver, err := r.u8()
	if err != nil {
		return err
	}
	if ver != 1 && ver != codecVersion {
		return fmt.Errorf("telemetry: unsupported codec version %d", ver)
	}
	flags, err := r.u8()
	if err != nil {
		return err
	}
	p.Stack.Truncated = flags&1 != 0
	if ver >= 2 {
		mode, err := r.u8()
		if err != nil {
			return err
		}
		if mode != 0 {
			return ErrSampledProbe
		}
		if _, err = r.u16(); err != nil { // sampleRate
			return err
		}
		hops, err := r.u8()
		if err != nil {
			return err
		}
		p.HopCount = int(hops)
	}
	if p.Seq, err = r.u64(); err != nil {
		return err
	}
	sentAt, err := r.u64()
	if err != nil {
		return err
	}
	p.SentAt = time.Duration(sentAt)
	lastHop, err := r.u64()
	if err != nil {
		return err
	}
	p.LastHopLatency = time.Duration(lastHop)
	if p.Origin, err = r.strReuse(p.Origin); err != nil {
		return err
	}
	if p.Target, err = r.strReuse(p.Target); err != nil {
		return err
	}
	n, err := r.u8()
	if err != nil {
		return err
	}
	// Reject a declared record count that cannot fit in the remaining bytes
	// BEFORE growing scratch storage: a forged count must not be able to
	// drive allocation (the scratch buffers live for the life of a decode
	// loop, so one bad datagram would otherwise pin the growth forever).
	minRecord := minRecordWireV2
	if ver == 1 {
		minRecord = minRecordWireV1
	}
	if int(n)*minRecord > len(r.b)-r.off {
		return ErrTruncatedPayload
	}
	// Reuse previously decoded record storage (notably each slot's Queues
	// backing array); every field is overwritten below. When growing, copy
	// the old slots so their Queues arrays stay reusable.
	recs := p.Stack.Records
	if cap(recs) < int(n) {
		grown := make([]Record, int(n))
		copy(grown, recs[:cap(recs)])
		recs = grown
	}
	recs = recs[:n]
	for i := 0; i < int(n); i++ {
		rec := &recs[i]
		rec.HopIndex = i
		if ver >= 2 {
			hop, err := r.u8()
			if err != nil {
				return err
			}
			rec.HopIndex = int(hop)
		}
		if rec.Device, err = r.strReuse(rec.Device); err != nil {
			return err
		}
		in, err := r.u8()
		if err != nil {
			return err
		}
		out, err := r.u8()
		if err != nil {
			return err
		}
		rec.IngressPort, rec.EgressPort = int(in), int(out)
		ll, err := r.u64()
		if err != nil {
			return err
		}
		hl, err := r.u64()
		if err != nil {
			return err
		}
		ts, err := r.u64()
		if err != nil {
			return err
		}
		rec.LinkLatency = time.Duration(ll)
		rec.HopLatency = time.Duration(hl)
		rec.EgressTS = time.Duration(ts)
		nq, err := r.u8()
		if err != nil {
			return err
		}
		// Same forged-count guard as for records: bound the queue count by
		// the bytes actually present before growing scratch.
		if int(nq)*queueWireSize > len(r.b)-r.off {
			return ErrTruncatedPayload
		}
		queues := rec.Queues
		if cap(queues) < int(nq) {
			queues = make([]PortQueue, int(nq))
		}
		queues = queues[:nq]
		for j := 0; j < int(nq); j++ {
			port, err := r.u8()
			if err != nil {
				return err
			}
			mq, err := r.u16()
			if err != nil {
				return err
			}
			pk, err := r.u32()
			if err != nil {
				return err
			}
			queues[j] = PortQueue{Port: int(port), MaxQueue: int(mq), Packets: pk}
		}
		rec.Queues = queues
	}
	p.Stack.Records = recs
	if ver == 1 {
		// A version-1 stack is the whole path.
		p.HopCount = len(recs)
	}
	return nil
}

// EncodedSize returns the exact wire size AppendProbe would produce for p,
// without encoding. The simulator uses it for bytes-on-wire accounting:
// probes travel as fixed-MTU packets in the sim, so the meaningful overhead
// number is the telemetry payload a real network would carry.
func EncodedSize(p *ProbePayload) int {
	n := 2 + 1 + 1 + 1 + 2 + 1 + 8 + 8 + 8 + // magic..hopCount, seq, sentAt, lastHop
		1 + len(p.Origin) + 1 + len(p.Target) + 1
	for i := range p.Stack.Records {
		r := &p.Stack.Records[i]
		n += minRecordWireV2 + len(r.Device) + len(r.Queues)*queueWireSize
	}
	return n
}
