// Package wire defines the on-the-wire encodings shared by the live
// (real-socket) deployment: a compact binary encapsulation header for
// datagrams forwarded through the soft-switch overlay (this file), and the
// length-prefixed binary frames of the scheduler's TCP query protocol
// (query.go). Both are fixed-width big-endian fields and length-prefixed
// names; every length is checked against the bytes actually present.
//
// Probe payloads inside probe datagrams use the binary codec from the
// telemetry package; this package only frames and addresses them.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Magic identifies overlay datagrams.
const Magic uint16 = 0x1A7E

// Kind tags an overlay datagram's role (mirrors netsim.PacketKind for the
// kinds the live overlay carries).
type Kind uint8

// Overlay datagram kinds.
const (
	KindData Kind = iota
	KindProbe
	KindPing
	KindPong
	// KindDirective carries a collector→prober cadence directive
	// (telemetry.CadenceDirective) back along the probe return path.
	// Pre-directive receivers drop unknown kinds silently, so mixed-version
	// fleets degrade to static cadence rather than erroring.
	KindDirective
)

// MaxNodeName bounds node identifiers on the wire.
const MaxNodeName = 255

// DefaultTTL is the initial hop limit for overlay datagrams.
const DefaultTTL = 32

// Datagram is one encapsulated overlay packet.
type Datagram struct {
	Kind Kind
	TTL  uint8
	// Src and Dst are overlay node names.
	Src, Dst string
	// SentAtNs is the sender's wall-clock timestamp (for ping RTT).
	SentAtNs int64
	// EgressTS carries the previous hop's egress timestamp for link
	// latency measurement (0 when absent), exactly like the simulator's
	// probe stamping.
	EgressTS int64
	// Payload is the opaque upper-layer content (e.g. an encoded probe).
	Payload []byte
}

// Marshal encodes the datagram.
//
//	magic u16 | kind u8 | ttl u8 | sentAt i64 | egressTS i64 |
//	srcLen u8 | src | dstLen u8 | dst | payloadLen u16 | payload
func (d *Datagram) Marshal() ([]byte, error) {
	if len(d.Src) > MaxNodeName || len(d.Dst) > MaxNodeName {
		return nil, fmt.Errorf("wire: node name too long")
	}
	if len(d.Payload) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: payload too large (%d)", len(d.Payload))
	}
	buf := make([]byte, 0, 24+len(d.Src)+len(d.Dst)+len(d.Payload))
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, byte(d.Kind), d.TTL)
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.SentAtNs))
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.EgressTS))
	buf = append(buf, byte(len(d.Src)))
	buf = append(buf, d.Src...)
	buf = append(buf, byte(len(d.Dst)))
	buf = append(buf, d.Dst...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.Payload)))
	buf = append(buf, d.Payload...)
	return buf, nil
}

// ErrShortDatagram is returned for malformed overlay datagrams.
var ErrShortDatagram = errors.New("wire: short datagram")

// UnmarshalDatagram decodes an overlay datagram.
func UnmarshalDatagram(b []byte) (*Datagram, error) {
	if len(b) < 22 {
		return nil, ErrShortDatagram
	}
	if binary.BigEndian.Uint16(b) != Magic {
		return nil, fmt.Errorf("wire: bad magic %#x", binary.BigEndian.Uint16(b))
	}
	d := &Datagram{Kind: Kind(b[2]), TTL: b[3]}
	d.SentAtNs = int64(binary.BigEndian.Uint64(b[4:]))
	d.EgressTS = int64(binary.BigEndian.Uint64(b[12:]))
	off := 20
	take := func() (string, bool) {
		if off >= len(b) {
			return "", false
		}
		n := int(b[off])
		off++
		if off+n > len(b) {
			return "", false
		}
		s := string(b[off : off+n])
		off += n
		return s, true
	}
	var ok bool
	if d.Src, ok = take(); !ok {
		return nil, ErrShortDatagram
	}
	if d.Dst, ok = take(); !ok {
		return nil, ErrShortDatagram
	}
	if off+2 > len(b) {
		return nil, ErrShortDatagram
	}
	plen := int(binary.BigEndian.Uint16(b[off:]))
	off += 2
	if off+plen > len(b) {
		return nil, ErrShortDatagram
	}
	d.Payload = append([]byte(nil), b[off:off+plen]...)
	return d, nil
}
