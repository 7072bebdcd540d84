package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// --- TCP query protocol -------------------------------------------------
//
// A connection carries any number of frames each way; the scheduler answers
// request frames in the order they arrive. Integers are big-endian, names
// carry a one-byte length.
//
//	frame     = bodyLen u32 | body
//	request   = 0x01 | query
//	query     = flags u8 (bit 0: sorted) | count i32 (≥ 0; 0 = all) |
//	            dataBytes i64 | fromLen u8 | from | metricLen u8 | metric
//	response  = 0x81 | answer
//	answer    = metricLen u8 | metric | errLen u16 | err | n u16 | candidate × n
//	candidate = nodeLen u8 | node | delayNs i64 | bandwidthBps f64 bits |
//	            hops i32 | reachable u8 (0 or 1)
//
// Every valid body has exactly one encoding: unknown flag bits, a negative
// count, a reachable byte above 1 and bytes after the message are all
// errors.

const (
	// MaxFrame bounds a response body, and so what a client will buffer
	// for one answer.
	MaxFrame = 1 << 20
	// MaxRequestFrame bounds a request body, and so what the scheduler will
	// buffer for a connection it knows nothing about: the kind, the fixed
	// fields of a query and two names of MaxNodeName bytes.
	MaxRequestFrame = 1 + 1 + 4 + 8 + 2*(1+MaxNodeName)

	// minCandidate is the shortest encoding of a candidate; a declared
	// count is checked against it before anything is allocated.
	minCandidate = 1 + 8 + 8 + 4 + 1

	kindQuery  byte = 0x01
	kindAnswer byte = 0x81

	flagSorted byte = 1 << 0

	// readStep is how much of a frame body is read at a time, so that a
	// buffer grows with the bytes that arrived rather than with the length
	// a peer declared.
	readStep = 4 << 10
)

var (
	// ErrFrameTooLarge reports a frame whose declared body exceeds what its
	// message may occupy (MaxRequestFrame or MaxFrame).
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrBadFrame reports a frame body that is not a valid message.
	ErrBadFrame = errors.New("wire: malformed frame")
)

// Message is one side of the query protocol: *QueryRequest or
// *QueryResponse.
type Message interface {
	// AppendTo appends the message's frame body to b.
	AppendTo(b []byte) ([]byte, error)
	// Decode replaces the message with the one body holds, keeping the
	// slices and equal strings it already has. It retains nothing of body.
	Decode(body []byte) error
	// frameLimit is the largest body a frame of this message may have.
	frameLimit() int
}

// Framer moves frames through a buffer it keeps, so a connection that
// carries many frames allocates for none of them. Reading and writing share
// the buffer: a message is complete, and holds nothing of it, before the
// next call. The zero value is ready to use.
type Framer struct{ buf []byte }

// WriteFrame writes m as one frame in one Write.
func (f *Framer) WriteFrame(w io.Writer, m Message) error {
	b, err := m.AppendTo(append(f.buf[:0], 0, 0, 0, 0))
	if err != nil {
		return err
	}
	f.buf = b
	n := len(b) - 4
	if n > m.frameLimit() {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	_, err = w.Write(b)
	return err
}

// ReadFrame reads exactly one frame from r into m. It returns io.EOF when r
// ends before the frame's first byte and io.ErrUnexpectedEOF when it ends
// inside the frame.
func (f *Framer) ReadFrame(r io.Reader, m Message) error {
	b := slices.Grow(f.buf[:0], 4)[:4]
	f.buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > m.frameLimit() {
		return fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	b = b[:0]
	for len(b) < n {
		step := min(n-len(b), readStep)
		b = slices.Grow(b, step)
		k, err := io.ReadFull(r, b[len(b):len(b)+step])
		b = b[:len(b)+k]
		f.buf = b
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return m.Decode(b)
}

// WriteFrame writes m as one frame through a buffer of its own.
func WriteFrame(w io.Writer, m Message) error { return new(Framer).WriteFrame(w, m) }

// ReadFrame reads one frame from r into m through a buffer of its own.
func ReadFrame(r io.Reader, m Message) error { return new(Framer).ReadFrame(r, m) }

// QueryRequest is the scheduler query sent by a live edge device.
type QueryRequest struct {
	From   string
	Metric string
	Count  int
	Sorted bool
	// DataBytes optionally hints the task's transfer size for size-aware
	// rankings (metric "transfer-time").
	DataBytes int64
}

// CandidateInfo is one ranked edge server in a live query response.
type CandidateInfo struct {
	Node         string
	DelayNs      int64
	BandwidthBps float64
	Hops         int
	Reachable    bool
}

// Delay returns the candidate's delay estimate as a duration.
func (c CandidateInfo) Delay() time.Duration { return time.Duration(c.DelayNs) }

// QueryResponse is the scheduler's reply.
type QueryResponse struct {
	Metric     string
	Error      string
	Candidates []CandidateInfo
}

func (q *QueryRequest) frameLimit() int  { return MaxRequestFrame }
func (r *QueryResponse) frameLimit() int { return MaxFrame }

// AppendTo appends the request's frame body to b.
func (q *QueryRequest) AppendTo(b []byte) ([]byte, error) {
	if len(q.From) > MaxNodeName || len(q.Metric) > MaxNodeName {
		return b, errors.New("wire: query name too long")
	}
	if q.Count < 0 || q.Count > math.MaxInt32 {
		return b, fmt.Errorf("wire: count %d out of range", q.Count)
	}
	var flags byte
	if q.Sorted {
		flags |= flagSorted
	}
	b = append(b, kindQuery, flags)
	b = binary.BigEndian.AppendUint32(b, uint32(q.Count))
	b = binary.BigEndian.AppendUint64(b, uint64(q.DataBytes))
	b = appendName(b, q.From)
	return appendName(b, q.Metric), nil
}

// Decode replaces the request with the one body holds.
func (q *QueryRequest) Decode(body []byte) error {
	c := cursor{b: body}
	if kind := c.u8(); kind != kindQuery {
		return fmt.Errorf("%w: kind %#x is not a request", ErrBadFrame, kind)
	}
	flags := c.u8()
	q.Sorted = flags&flagSorted != 0
	q.Count = int(int32(c.u32()))
	q.DataBytes = int64(c.u64())
	c.name(&q.From)
	c.name(&q.Metric)
	if flags&^flagSorted != 0 || q.Count < 0 {
		c.bad = true
	}
	return c.finish()
}

// AppendTo appends the response's frame body to b.
func (r *QueryResponse) AppendTo(b []byte) ([]byte, error) {
	if len(r.Metric) > MaxNodeName || len(r.Error) > math.MaxUint16 || len(r.Candidates) > math.MaxUint16 {
		return b, errors.New("wire: answer field too long")
	}
	b = append(b, kindAnswer)
	b = appendName(b, r.Metric)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Error)))
	b = append(b, r.Error...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Candidates)))
	for i := range r.Candidates {
		c := &r.Candidates[i]
		if len(c.Node) > MaxNodeName || c.Hops < math.MinInt32 || c.Hops > math.MaxInt32 {
			return b, fmt.Errorf("wire: candidate %d does not fit its fields", i)
		}
		b = appendName(b, c.Node)
		b = binary.BigEndian.AppendUint64(b, uint64(c.DelayNs))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(c.BandwidthBps))
		b = binary.BigEndian.AppendUint32(b, uint32(int32(c.Hops)))
		var reachable byte
		if c.Reachable {
			reachable = 1
		}
		b = append(b, reachable)
	}
	return b, nil
}

// Decode replaces the response with the one body holds.
func (r *QueryResponse) Decode(body []byte) error {
	c := cursor{b: body}
	if kind := c.u8(); kind != kindAnswer {
		return fmt.Errorf("%w: kind %#x is not a response", ErrBadFrame, kind)
	}
	c.name(&r.Metric)
	c.str(&r.Error, int(c.u16()))
	n := int(c.u16())
	if n*minCandidate > len(c.b) {
		c.bad = true
		n = 0
	}
	r.Candidates = resize(r.Candidates, n)
	for i := range r.Candidates {
		ci := &r.Candidates[i]
		c.name(&ci.Node)
		ci.DelayNs = int64(c.u64())
		ci.BandwidthBps = math.Float64frombits(c.u64())
		ci.Hops = int(int32(c.u32()))
		reachable := c.u8()
		if reachable > 1 {
			c.bad = true
		}
		ci.Reachable = reachable == 1
	}
	return c.finish()
}

func appendName(b []byte, s string) []byte {
	return append(append(b, byte(len(s))), s...)
}

// resize returns a slice of length n: s itself, with its elements and what
// they hold for Decode to reuse, when its capacity allows.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// cursor walks a frame body. A read past the end yields zeros and marks the
// body bad, so decoders check once, in finish.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) take(n int) []byte {
	if n > len(c.b) {
		c.bad, c.b = true, nil
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *cursor) u8() byte {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (c *cursor) u16() uint16 {
	if p := c.take(2); p != nil {
		return binary.BigEndian.Uint16(p)
	}
	return 0
}

func (c *cursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

func (c *cursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return binary.BigEndian.Uint64(p)
	}
	return 0
}

// str sets *dst to the next n bytes, keeping the string it already holds
// when that is equal: a reused message pays for a name only when it changes.
func (c *cursor) str(dst *string, n int) {
	if p := c.take(n); *dst != string(p) {
		*dst = string(p)
	}
}

func (c *cursor) name(dst *string) { c.str(dst, int(c.u8())) }

// finish reports whether the body was exactly one message.
func (c *cursor) finish() error {
	switch {
	case c.bad:
		return fmt.Errorf("%w: truncated or invalid field", ErrBadFrame)
	case len(c.b) > 0:
		return fmt.Errorf("%w: %d bytes after the message", ErrBadFrame, len(c.b))
	}
	return nil
}
