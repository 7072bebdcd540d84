package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// sampleRequests and sampleResponses cover the extremes of each field and
// the values JSON could not carry.
func sampleRequests() []*QueryRequest {
	return []*QueryRequest{
		{From: "n1", Metric: "delay", Count: 3, Sorted: true},
		{},
		{From: strings.Repeat("f", MaxNodeName), Metric: strings.Repeat("m", MaxNodeName), Count: math.MaxInt32, DataBytes: math.MinInt64},
		{From: "n2", Metric: "transfer-time", Count: 8, Sorted: true, DataBytes: 20 << 20},
	}
}

func sampleResponses() []*QueryResponse {
	return []*QueryResponse{
		{Metric: "delay", Candidates: []CandidateInfo{
			{Node: "e1", DelayNs: int64(30e6), BandwidthBps: 2e7, Hops: 3, Reachable: true},
			{Node: "e2", DelayNs: -1, BandwidthBps: math.Inf(1), Hops: -1},
			{Node: "", BandwidthBps: math.Inf(-1), Hops: math.MaxInt32, Reachable: true},
		}},
		{Metric: "bogus", Error: `unknown metric "bogus"`},
		{},
		{Metric: "bandwidth", Candidates: []CandidateInfo{{Node: "e1", DelayNs: 5, BandwidthBps: math.NaN(), Hops: 2, Reachable: true}}},
	}
}

// body returns m's frame body.
func body(t testing.TB, m Message) []byte {
	t.Helper()
	b, err := m.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &QueryRequest{From: "n1", Metric: "delay", Count: 3, Sorted: true}
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	resp := sampleResponses()[0]
	if err := WriteFrame(&buf, resp); err != nil {
		t.Fatal(err)
	}
	var gotReq QueryRequest
	if err := ReadFrame(&buf, &gotReq); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReq, *req) {
		t.Fatalf("request %+v", gotReq)
	}
	var gotResp QueryResponse
	if err := ReadFrame(&buf, &gotResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotResp, *resp) {
		t.Fatalf("response %+v", gotResp)
	}
	if gotResp.Candidates[0].Delay().Milliseconds() != 30 {
		t.Fatal("Delay() accessor")
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left after both frames were read", buf.Len())
	}
}

// TestQueryCodecRoundTrip: every sample decodes to itself into a fresh
// message and into one that held another sample before, and its bytes are
// the only encoding of it.
func TestQueryCodecRoundTrip(t *testing.T) {
	reqs, resps := sampleRequests(), sampleResponses()
	var reusedReq QueryRequest
	for round := 0; round < 2; round++ {
		for i, want := range reqs {
			enc := body(t, want)
			var fresh QueryRequest
			for _, got := range []*QueryRequest{&fresh, &reusedReq} {
				if err := got.Decode(enc); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if !bytes.Equal(body(t, got), enc) {
					t.Fatalf("request %d decoded to %+v, want %+v", i, got, want)
				}
			}
			if !reflect.DeepEqual(&fresh, want) {
				t.Fatalf("request %d decoded to %+v, want %+v", i, fresh, want)
			}
		}
	}
	var reusedResp QueryResponse
	for round := 0; round < 2; round++ {
		for i, want := range resps {
			enc := body(t, want)
			var fresh QueryResponse
			for _, got := range []*QueryResponse{&fresh, &reusedResp} {
				if err := got.Decode(enc); err != nil {
					t.Fatalf("response %d: %v", i, err)
				}
				// Byte equality compares NaN and the infinities by their bits.
				if !bytes.Equal(body(t, got), enc) {
					t.Fatalf("response %d decoded to %+v, want %+v", i, got, want)
				}
				if len(got.Candidates) != len(want.Candidates) || got.Error != want.Error {
					t.Fatalf("response %d decoded to %+v, want %+v", i, got, want)
				}
			}
		}
	}
	nan := body(t, resps[3])
	var got QueryResponse
	if err := got.Decode(nan); err != nil || !math.IsNaN(got.Candidates[0].BandwidthBps) {
		t.Fatalf("NaN bandwidth decoded to %+v (%v)", got, err)
	}
}

func TestQueryEncodeRejects(t *testing.T) {
	long := strings.Repeat("x", MaxNodeName+1)
	for name, m := range map[string]Message{
		"long from":      &QueryRequest{From: long},
		"long metric":    &QueryRequest{Metric: long},
		"count overflow": &QueryRequest{Count: math.MaxInt32 + 1},
		"negative count": &QueryRequest{Count: -1},
		"long node":      &QueryResponse{Candidates: []CandidateInfo{{Node: long}}},
		"long error":     &QueryResponse{Error: strings.Repeat("e", math.MaxUint16+1)},
	} {
		if _, err := m.AppendTo(nil); err == nil {
			t.Errorf("%s: encoded", name)
		}
		if err := WriteFrame(io.Discard, m); err == nil {
			t.Errorf("%s: written", name)
		}
	}
	// The longest query is exactly the request cap.
	longest := sampleRequests()[2]
	if n := len(body(t, longest)); n != MaxRequestFrame {
		t.Fatalf("largest request is %d bytes, MaxRequestFrame is %d", n, MaxRequestFrame)
	}
	var back QueryRequest
	var buf bytes.Buffer
	if err := WriteFrame(&buf, longest); err != nil {
		t.Fatal(err)
	}
	if err := ReadFrame(&buf, &back); err != nil || !reflect.DeepEqual(&back, longest) {
		t.Fatalf("largest request read back as %+v (%v)", back, err)
	}
}

func TestQueryDecodeRejects(t *testing.T) {
	req := body(t, sampleRequests()[0])
	resp := body(t, sampleResponses()[0])
	type rejectCase struct {
		name string
		m    Message
		body []byte
	}
	cases := []rejectCase{
		{"empty request", &QueryRequest{}, nil},
		{"empty response", &QueryResponse{}, nil},
		{"response read as request", &QueryRequest{}, resp},
		{"request read as response", &QueryResponse{}, req},
		{"JSON", &QueryRequest{}, []byte(`{"from":"n1","metric":"delay"}`)},
		{"unknown flag", &QueryRequest{}, edit(req, 1, 0x03)},
		{"negative count", &QueryRequest{}, negativeCount(t)},
		{"count above MaxInt32", &QueryRequest{}, edit(req, 2, 0x80, 0, 0, 0)},
		{"trailing byte", &QueryRequest{}, append(append([]byte(nil), req...), 0)},
		{"inflated from", &QueryRequest{}, edit(req, 14, 0xff)},
		{"old batch kind", &QueryRequest{}, edit(req, 0, 0x02)},
		{"reachable 2", &QueryResponse{}, edit(resp, len(resp)-1, 2)},
		{"inflated candidates", &QueryResponse{}, edit(resp, 9, 0xff, 0xff)},
		{"inflated error", &QueryResponse{}, edit(resp, 7, 0xff, 0xff)},
		{"old batch answer kind", &QueryResponse{}, edit(resp, 0, 0x82)},
	}
	for i := 0; i < len(req); i++ {
		cases = append(cases, rejectCase{"truncated request", &QueryRequest{}, req[:i]})
	}
	for i := 0; i < len(resp); i++ {
		cases = append(cases, rejectCase{"truncated response", &QueryResponse{}, resp[:i]})
	}
	for _, c := range cases {
		if err := c.m.Decode(c.body); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s (%d bytes): got %v, want ErrBadFrame", c.name, len(c.body), err)
		}
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, &QueryRequest{From: "n1"})
	data := buf.Bytes()
	for i := 0; i < len(data); i++ {
		var req QueryRequest
		want := io.ErrUnexpectedEOF
		if i == 0 {
			want = io.EOF
		}
		if err := ReadFrame(bytes.NewReader(data[:i]), &req); err != want {
			t.Fatalf("truncated frame of %d bytes: got %v, want %v", i, err, want)
		}
	}
}

// TestReadFrameOversizeRejected: a request frame is held to MaxRequestFrame,
// a response frame to MaxFrame, before any of the body is read.
func TestReadFrameOversizeRejected(t *testing.T) {
	header := func(n uint32) io.Reader {
		return bytes.NewReader(binary.BigEndian.AppendUint32(nil, n))
	}
	if err := ReadFrame(header(MaxRequestFrame+1), &QueryRequest{}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize request: %v", err)
	}
	if err := ReadFrame(header(MaxRequestFrame+1), &QueryResponse{}); err != io.ErrUnexpectedEOF {
		t.Fatalf("a response may exceed the request cap: %v", err)
	}
	if err := ReadFrame(header(MaxFrame+1), &QueryResponse{}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize response: %v", err)
	}
}

// TestReadFrameBuffersWhatArrived: the length a peer declares allocates
// nothing until the bytes follow.
func TestReadFrameBuffersWhatArrived(t *testing.T) {
	var f Framer
	declared := binary.BigEndian.AppendUint32(nil, MaxFrame)
	arrived := append(declared, make([]byte, 100)...)
	if err := f.ReadFrame(bytes.NewReader(arrived), &QueryResponse{}); err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v", err)
	}
	if cap(f.buf) > 2*readStep {
		t.Fatalf("buffer grew to %d bytes for 100 delivered", cap(f.buf))
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFramerReusesItsBuffer: a frame is one Write, and a framer that has
// carried a frame of each kind carries the next ones without allocating
// (beyond the names a decoded message keeps).
func TestFramerReusesItsBuffer(t *testing.T) {
	var (
		f    Framer
		w    countingWriter
		req  = sampleRequests()[0]
		resp = sampleResponses()[0]
		back QueryRequest
	)
	trip := func() {
		w.Reset()
		if err := f.WriteFrame(&w, resp); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteFrame(&w, req); err != nil {
			t.Fatal(err)
		}
		w.Next(4 + len(body(t, resp)))
		if err := f.ReadFrame(&w, &back); err != nil {
			t.Fatal(err)
		}
	}
	trip()
	if w.writes != 2 {
		t.Fatalf("two frames took %d writes", w.writes)
	}
	if !reflect.DeepEqual(&back, req) {
		t.Fatalf("read back %+v", back)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := f.WriteFrame(io.Discard, resp); err != nil {
			t.Fatal(err)
		}
		if err := f.WriteFrame(&w, req); err != nil {
			t.Fatal(err)
		}
		if err := f.ReadFrame(&w, &back); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warmed framer and message cost %v allocations per round trip", allocs)
	}
}

// edit returns a copy of b with v written at offset at.
func edit(b []byte, at int, v ...byte) []byte {
	out := append([]byte(nil), b...)
	copy(out[at:], v)
	return out
}

// negativeCount is the first sample request with count -1 on the wire: the
// second encoding of "all" that the decoder refuses.
func negativeCount(t testing.TB) []byte {
	return edit(body(t, sampleRequests()[0]), 2, 0xff, 0xff, 0xff, 0xff)
}

// requestFootprint and responseFootprint are the memory a decoded message
// holds.
func requestFootprint(q *QueryRequest) int { return len(q.From) + len(q.Metric) }

func responseFootprint(r *QueryResponse) int {
	n := len(r.Metric) + len(r.Error) + cap(r.Candidates)*int(unsafe.Sizeof(CandidateInfo{}))
	for i := range r.Candidates {
		n += len(r.Candidates[i].Node)
	}
	return n
}

// FuzzDecodeQuery feeds arbitrary frame bodies to both decoders. Neither may
// panic; what a body decodes to may hold no more memory than a fixed
// multiple of the body (a count is never believed before its bytes are
// there); and an accepted body is the one encoding of its message, so
// decode → encode gives the input back and decoding that gives the same
// message.
func FuzzDecodeQuery(f *testing.F) {
	var seeds [][]byte
	for _, q := range sampleRequests() {
		seeds = append(seeds, body(f, q))
	}
	for _, r := range sampleResponses() {
		seeds = append(seeds, body(f, r))
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		// Inflate the two bytes after the kind: the request's flags and
		// count, or the response's metric name length and what follows it.
		if len(s) >= 3 {
			inflated := append([]byte(nil), s...)
			inflated[1], inflated[2] = 0xff, 0xff
			f.Add(inflated)
		}
	}
	f.Add([]byte{})
	f.Add([]byte(`{"from":"n1","metric":"delay","sorted":true}`))
	f.Add(negativeCount(f))

	// The largest element a decoder allocates per byte of input is a
	// CandidateInfo (48 bytes) for a 22-byte candidate; names are copied
	// byte for byte.
	const perByte = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		var q QueryRequest
		if err := q.Decode(data); err == nil {
			if got := requestFootprint(&q); got > perByte*len(data) {
				t.Fatalf("%d-byte request decoded to %d bytes", len(data), got)
			}
			enc, err := q.AppendTo(nil)
			if err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("request re-encoded to %x (%v), was %x", enc, err, data)
			}
			var again QueryRequest
			if err := again.Decode(enc); err != nil || !reflect.DeepEqual(again, q) {
				t.Fatalf("request decoded again to %+v (%v), was %+v", again, err, q)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("request decoder returned %v", err)
		}
		var r QueryResponse
		if err := r.Decode(data); err == nil {
			if got := responseFootprint(&r); got > perByte*len(data) {
				t.Fatalf("%d-byte response decoded to %d bytes", len(data), got)
			}
			enc, err := r.AppendTo(nil)
			if err != nil || !bytes.Equal(enc, data) {
				t.Fatalf("response re-encoded to %x (%v), was %x", enc, err, data)
			}
			var again QueryResponse
			if err := again.Decode(enc); err != nil {
				t.Fatalf("response did not decode again: %v", err)
			}
			// NaN differs from itself: compare the two decodings by their bytes.
			if enc2, err := again.AppendTo(nil); err != nil || !bytes.Equal(enc2, enc) {
				t.Fatalf("response decoded again to %+v (%v), was %+v", again, err, r)
			}
		} else if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("response decoder returned %v", err)
		}
	})
}
