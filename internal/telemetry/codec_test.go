package telemetry

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func samplePayload() *ProbePayload {
	p := &ProbePayload{Origin: "n3", Seq: 42, SentAt: 1234 * time.Millisecond}
	p.Stack.Append(Record{
		Device:      "s01",
		IngressPort: 2,
		EgressPort:  3,
		LinkLatency: 10 * time.Millisecond,
		HopLatency:  600 * time.Microsecond,
		EgressTS:    2 * time.Second,
		Queues: []PortQueue{
			{Port: 0, MaxQueue: 12, Packets: 100},
			{Port: 1, MaxQueue: 0, Packets: 0},
		},
	})
	p.Stack.Append(Record{Device: "s02", EgressPort: 1, EgressTS: 3 * time.Second})
	return p
}

func TestProbeCodecRoundTrip(t *testing.T) {
	p := samplePayload()
	b, err := MarshalProbe(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(p), normalize(got)) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", p, got)
	}
}

// probeWireGolden is samplePayload() on the wire, field by field. Every
// deployed switch and agent speaks this layout, so a change to it is a
// protocol change and must be made here on purpose.
const probeWireGolden = "" +
	// magic, version 2, flags, mode, sample rate, hop count
	"0103" + "02" + "00" + "00" + "0000" + "00" +
	// seq 42, sentAt 1.234 s, last hop 0
	"000000000000002a" + "00000000498d5880" + "0000000000000000" +
	// origin "n3", empty target, two records
	"026e33" + "00" + "02" +
	// record 0: hop index, "s01", ports 2→3, link 10 ms, hop 600 µs,
	// egress 2 s, two queues (port 0: 12 pkts max, 100 seen; port 1: idle)
	"00" + "03733031" + "0203" + "0000000000989680" + "00000000000927c0" +
	"0000000077359400" + "02" + "00000c00000064" + "01000000000000" +
	// record 1: hop index, "s02", ports 0→1, zero latencies, egress 3 s,
	// no queues
	"00" + "03733032" + "0001" + "0000000000000000" + "0000000000000000" +
	"00000000b2d05e00" + "00"

// TestProbeWireGolden pins the probe wire format byte for byte: the encoder
// must produce the recorded bytes, and the decoder must read them back into
// the payload they came from.
func TestProbeWireGolden(t *testing.T) {
	b, err := MarshalProbe(samplePayload())
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != probeWireGolden {
		t.Fatalf("probe wire changed:\n got  %s\n want %s", got, probeWireGolden)
	}
	golden, err := hex.DecodeString(probeWireGolden)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalProbe(golden)
	if err != nil {
		t.Fatal(err)
	}
	if want := samplePayload(); !reflect.DeepEqual(normalize(want), normalize(got)) {
		t.Fatalf("golden bytes decode to\n  %+v\nwant\n  %+v", got, want)
	}
}

// normalize maps empty and nil slices to a canonical form for comparison.
func normalize(p *ProbePayload) *ProbePayload {
	q := *p
	if len(q.Stack.Records) == 0 {
		q.Stack.Records = nil
	}
	for i := range q.Stack.Records {
		if len(q.Stack.Records[i].Queues) == 0 {
			q.Stack.Records[i].Queues = nil
		}
	}
	return &q
}

func TestProbeCodecEmptyStack(t *testing.T) {
	p := &ProbePayload{Origin: "n1", Seq: 1, SentAt: time.Second}
	b, err := MarshalProbe(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != "n1" || got.Seq != 1 || len(got.Stack.Records) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestProbeCodecTruncatedFlag(t *testing.T) {
	p := samplePayload()
	p.Stack.Truncated = true
	b, _ := MarshalProbe(p)
	got, err := UnmarshalProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Stack.Truncated {
		t.Fatal("truncated flag lost")
	}
}

func TestUnmarshalBadMagic(t *testing.T) {
	b, _ := MarshalProbe(samplePayload())
	b[0] = 0xFF
	if _, err := UnmarshalProbe(b); err != ErrBadMagic {
		t.Fatalf("err=%v, want ErrBadMagic", err)
	}
}

func TestUnmarshalTruncatedInputs(t *testing.T) {
	b, _ := MarshalProbe(samplePayload())
	// Every proper prefix must fail cleanly, never panic.
	for i := 0; i < len(b); i++ {
		if _, err := UnmarshalProbe(b[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded successfully", i)
		}
	}
}

func TestUnmarshalBadVersion(t *testing.T) {
	b, _ := MarshalProbe(samplePayload())
	b[2] = 99
	if _, err := UnmarshalProbe(b); err == nil {
		t.Fatal("bad version accepted")
	}
}

// TestUnmarshalForgedRecordCount forges probe headers whose declared record
// (or queue) count exceeds what the remaining bytes could possibly hold: the
// decoder must reject them with ErrTruncatedPayload before growing any
// scratch storage, so a hostile datagram cannot drive allocation.
func TestUnmarshalForgedRecordCount(t *testing.T) {
	p := samplePayload()
	good, err := MarshalProbe(p)
	if err != nil {
		t.Fatal(err)
	}
	// numRecords sits right after the header strings: magic(2) version(1)
	// flags(1) mode(1) rate(2) hops(1) seq(8) sentAt(8) lastHop(8)
	// originLen(1)+origin targetLen(1)+target.
	recCountOff := 2 + 1 + 1 + 1 + 2 + 1 + 8 + 8 + 8 + 1 + len(p.Origin) + 1 + len(p.Target)
	forged := append([]byte(nil), good...)
	forged[recCountOff] = 255
	var reused ProbePayload
	if err := UnmarshalProbeInto(&reused, forged); err != ErrTruncatedPayload {
		t.Fatalf("forged record count: err=%v, want ErrTruncatedPayload", err)
	}
	if cap(reused.Stack.Records) >= 255 {
		t.Fatalf("forged record count grew scratch to %d records", cap(reused.Stack.Records))
	}
	// Forge the first record's queue count the same way: it follows the
	// record's hopIndex, device string, ports, and three timestamps.
	queueCountOff := recCountOff + 1 +
		1 + 1 + len(p.Stack.Records[0].Device) + 1 + 1 + 8 + 8 + 8
	forged = append(forged[:0], good...)
	forged[queueCountOff] = 255
	if err := UnmarshalProbeInto(&reused, forged); err != ErrTruncatedPayload {
		t.Fatalf("forged queue count: err=%v, want ErrTruncatedPayload", err)
	}
	// The reused payload must still decode good input afterwards.
	if err := UnmarshalProbeInto(&reused, good); err != nil {
		t.Fatalf("good decode after forged inputs: %v", err)
	}
}

// TestProbeCodecModeRoundTrip checks the version-2 header fields survive a
// round trip, and that a probe whose mode byte says it is sampled is
// refused: its stack would hold only some of its hops.
func TestProbeCodecModeRoundTrip(t *testing.T) {
	p := samplePayload()
	p.HopCount = 7
	p.Stack.Records[0].HopIndex = 3
	p.Stack.Records[1].HopIndex = 6
	b, err := MarshalProbe(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.HopCount != 7 {
		t.Fatalf("hop count lost: %d", got.HopCount)
	}
	if got.Stack.Records[0].HopIndex != 3 || got.Stack.Records[1].HopIndex != 6 {
		t.Fatalf("hop indices lost: %+v", got.Stack.Records)
	}

	const modeOff = 2 + 1 + 1 // magic, version, flags
	b[modeOff] = 1
	if _, err := UnmarshalProbe(b); err != ErrSampledProbe {
		t.Fatalf("mode 1: err=%v, want ErrSampledProbe", err)
	}
}

// TestUnmarshalVersion1Compat hand-encodes a version-1 payload (no mode,
// sample-rate, hop-count, or per-record hop-index fields) and checks it still
// decodes, with hop indices and the hop count taken from the stack.
func TestUnmarshalVersion1Compat(t *testing.T) {
	p := samplePayload()
	var b []byte
	b = append(b, 0x01, 0x03) // GeneveMarker
	b = append(b, 1, 0)       // version 1, flags
	b = append(b, make([]byte, 24)...)
	b[4+7] = 42 // seq = 42
	b = append(b, byte(len(p.Origin)))
	b = append(b, p.Origin...)
	b = append(b, 0) // empty target
	b = append(b, byte(len(p.Stack.Records)))
	for i := range p.Stack.Records {
		r := &p.Stack.Records[i]
		b = append(b, byte(len(r.Device)))
		b = append(b, r.Device...)
		b = append(b, byte(r.IngressPort), byte(r.EgressPort))
		b = append(b, make([]byte, 24)...) // zero latencies/timestamps
		b = append(b, 0)                   // no queues
	}
	got, err := UnmarshalProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 42 {
		t.Fatalf("v1 decode: seq=%d", got.Seq)
	}
	if got.HopCount != len(p.Stack.Records) {
		t.Fatalf("v1 hop count %d, want stack depth %d", got.HopCount, len(p.Stack.Records))
	}
	for i := range got.Stack.Records {
		if got.Stack.Records[i].HopIndex != i {
			t.Fatalf("v1 record %d got hop index %d", i, got.Stack.Records[i].HopIndex)
		}
		if got.Stack.Records[i].Device != p.Stack.Records[i].Device {
			t.Fatalf("v1 record %d device %q", i, got.Stack.Records[i].Device)
		}
	}
}

// TestEncodedSize checks the analytic size against real encodings.
func TestEncodedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		p := randomPayload(rng)
		b, err := MarshalProbe(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodedSize(p); got != len(b) {
			t.Fatalf("EncodedSize=%d, encoded %d bytes: %+v", got, len(b), p)
		}
	}
}

func TestMarshalValidation(t *testing.T) {
	long := string(bytes.Repeat([]byte("x"), 300))
	if _, err := MarshalProbe(&ProbePayload{Origin: long}); err == nil {
		t.Error("overlong origin accepted")
	}
	p := &ProbePayload{Origin: "n1"}
	p.Stack.Records = []Record{{Device: long}}
	if _, err := MarshalProbe(p); err == nil {
		t.Error("overlong device accepted")
	}
	p = &ProbePayload{Origin: "n1"}
	p.Stack.Records = []Record{{Device: "s1", EgressPort: 300}}
	if _, err := MarshalProbe(p); err == nil {
		t.Error("out-of-range port accepted")
	}
}

func TestMarshalClampsQueueValues(t *testing.T) {
	p := &ProbePayload{Origin: "n1"}
	p.Stack.Records = []Record{{
		Device: "s1",
		Queues: []PortQueue{{Port: 0, MaxQueue: 1 << 20}, {Port: 1, MaxQueue: -5}},
	}}
	b, err := MarshalProbe(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalProbe(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stack.Records[0].Queues[0].MaxQueue != 65535 {
		t.Errorf("large queue not clamped: %d", got.Stack.Records[0].Queues[0].MaxQueue)
	}
	if got.Stack.Records[0].Queues[1].MaxQueue != 0 {
		t.Errorf("negative queue not clamped: %d", got.Stack.Records[0].Queues[1].MaxQueue)
	}
}

func TestProbeCodecPropertyRoundTrip(t *testing.T) {
	f := func(origin string, seq uint64, sentNs int64, dev string, in, out uint8, linkNs, hopNs int64, port uint8, mq uint16, pk uint32) bool {
		if len(origin) > 255 || len(dev) > 255 {
			return true
		}
		p := &ProbePayload{Origin: origin, Seq: seq, SentAt: time.Duration(sentNs)}
		p.Stack.Append(Record{
			Device:      dev,
			IngressPort: int(in),
			EgressPort:  int(out),
			LinkLatency: absDur(linkNs),
			HopLatency:  absDur(hopNs),
			EgressTS:    time.Duration(seq % 1e9),
			Queues:      []PortQueue{{Port: int(port), MaxQueue: int(mq), Packets: pk}},
		})
		b, err := MarshalProbe(p)
		if err != nil {
			return false
		}
		got, err := UnmarshalProbe(b)
		if err != nil {
			return false
		}
		r, g := p.Stack.Records[0], got.Stack.Records[0]
		return got.Origin == origin && got.Seq == seq &&
			g.Device == r.Device && g.IngressPort == r.IngressPort &&
			g.EgressPort == r.EgressPort && g.LinkLatency == r.LinkLatency &&
			g.Queues[0] == r.Queues[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func absDur(ns int64) time.Duration {
	if ns < 0 {
		if ns == -1<<63 {
			ns++
		}
		ns = -ns
	}
	return time.Duration(ns)
}

// randomPayload builds a pseudo-random payload from a seed: varied record
// counts, queue counts, and device-name lengths so successive decodes into
// one reused payload exercise shrink and grow paths.
func randomPayload(rng *rand.Rand) *ProbePayload {
	p := &ProbePayload{
		Origin:         fmt.Sprintf("n%d", rng.Intn(50)),
		Target:         fmt.Sprintf("t%d", rng.Intn(50)),
		Seq:            rng.Uint64(),
		SentAt:         time.Duration(rng.Int63n(int64(time.Hour))),
		LastHopLatency: time.Duration(rng.Int63n(int64(time.Second))),
	}
	p.Stack.Truncated = rng.Intn(4) == 0
	nrec := rng.Intn(8)
	for i := 0; i < nrec; i++ {
		rec := Record{
			Device:      fmt.Sprintf("sw-%0*d", rng.Intn(6)+1, rng.Intn(1000)),
			IngressPort: rng.Intn(256),
			EgressPort:  rng.Intn(256),
			LinkLatency: time.Duration(rng.Int63n(int64(time.Second))),
			HopLatency:  time.Duration(rng.Int63n(int64(time.Second))),
			EgressTS:    time.Duration(rng.Int63n(int64(time.Hour))),
		}
		for q := rng.Intn(5); q > 0; q-- {
			rec.Queues = append(rec.Queues, PortQueue{
				Port:     rng.Intn(256),
				MaxQueue: rng.Intn(65536),
				Packets:  rng.Uint32(),
			})
		}
		p.Stack.Append(rec)
	}
	return p
}

// TestUnmarshalProbeIntoDirtyReuse decodes a stream of random payloads into
// one reused (dirty, previously populated) payload and checks every decode
// matches a from-scratch UnmarshalProbe of the same bytes.
func TestUnmarshalProbeIntoDirtyReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused ProbePayload
	var buf []byte
	for i := 0; i < 300; i++ {
		want := randomPayload(rng)
		var err error
		buf, err = AppendProbe(buf[:0], want)
		if err != nil {
			t.Fatalf("iteration %d: AppendProbe: %v", i, err)
		}
		fresh, err := UnmarshalProbe(buf)
		if err != nil {
			t.Fatalf("iteration %d: UnmarshalProbe: %v", i, err)
		}
		if err := UnmarshalProbeInto(&reused, buf); err != nil {
			t.Fatalf("iteration %d: UnmarshalProbeInto: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(&reused), normalize(fresh)) {
			t.Fatalf("iteration %d: reuse mismatch:\n  fresh:  %+v\n  reused: %+v", i, fresh, &reused)
		}
	}
}

// TestUnmarshalProbeIntoBadInputs feeds truncated and corrupted payloads to
// a dirty reused payload: every error from scratch must reproduce under
// reuse, and a subsequent good decode must still succeed.
func TestUnmarshalProbeIntoBadInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	good, err := MarshalProbe(randomPayload(rng))
	if err != nil {
		t.Fatal(err)
	}
	var reused ProbePayload
	// Dirty the payload first.
	if err := UnmarshalProbeInto(&reused, good); err != nil {
		t.Fatal(err)
	}

	// Every truncation must error identically from scratch and under reuse.
	for i := 0; i < len(good); i++ {
		_, freshErr := UnmarshalProbe(good[:i])
		reuseErr := UnmarshalProbeInto(&reused, good[:i])
		if (freshErr == nil) != (reuseErr == nil) {
			t.Fatalf("truncation at %d: fresh err %v, reuse err %v", i, freshErr, reuseErr)
		}
		if freshErr == nil {
			t.Fatalf("truncation at %d decoded successfully", i)
		}
	}

	// Bad magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if err := UnmarshalProbeInto(&reused, bad); err != ErrBadMagic {
		t.Fatalf("bad magic under reuse: %v", err)
	}
	// Bad version.
	bad = append(bad[:0], good...)
	bad[2] = 99
	if err := UnmarshalProbeInto(&reused, bad); err == nil {
		t.Fatal("bad version decoded under reuse")
	}

	// The payload must still be reusable after the failed decodes.
	if err := UnmarshalProbeInto(&reused, good); err != nil {
		t.Fatalf("good decode after failures: %v", err)
	}
	fresh, err := UnmarshalProbe(good)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(&reused), normalize(fresh)) {
		t.Fatalf("post-failure decode mismatch:\n  fresh:  %+v\n  reused: %+v", fresh, &reused)
	}
}

// TestAppendProbeExtends checks AppendProbe appends after existing bytes and
// leaves the prefix intact on error.
func TestAppendProbeExtends(t *testing.T) {
	p := samplePayload()
	whole, err := MarshalProbe(p)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xde, 0xad}
	buf, err := AppendProbe(prefix, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:2], prefix) || !bytes.Equal(buf[2:], whole) {
		t.Fatal("AppendProbe did not append after the existing prefix")
	}

	bad := samplePayload()
	bad.Stack.Records[0].Queues[0].Port = 4096
	out, err := AppendProbe(prefix, bad)
	if err == nil {
		t.Fatal("out-of-range port encoded")
	}
	if len(out) != len(prefix) {
		t.Fatalf("error path returned %d bytes, want the %d-byte prefix", len(out), len(prefix))
	}
}

// BenchmarkProbeCodecReuse measures the zero-allocation encode/decode pair
// against the allocating wrappers (see also BenchmarkProbeCodec at the repo
// root, which feeds the results table in EXPERIMENTS.md).
func BenchmarkProbeCodecReuse(b *testing.B) {
	p := samplePayload()
	buf, err := MarshalProbe(p)
	if err != nil {
		b.Fatal(err)
	}
	var scratch ProbePayload
	var enc []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		enc, err = AppendProbe(enc[:0], p)
		if err != nil {
			b.Fatal(err)
		}
		if err := UnmarshalProbeInto(&scratch, buf); err != nil {
			b.Fatal(err)
		}
	}
}
