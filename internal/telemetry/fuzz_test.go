package telemetry

import (
	"bytes"
	"testing"
)

// fuzzSeedV1 hand-encodes a minimal version-1 payload (no mode, sample
// rate, hop count, or per-record hop indices).
func fuzzSeedV1() []byte {
	var b []byte
	b = append(b, 0x01, 0x03) // GeneveMarker
	b = append(b, 1, 0)       // version 1, flags
	b = append(b, make([]byte, 24)...)
	b[4+7] = 9 // seq
	b = append(b, 2)
	b = append(b, "e1"...)
	b = append(b, 0) // empty target
	b = append(b, 1) // one record
	b = append(b, 2)
	b = append(b, "s1"...)
	b = append(b, 1, 2)                // ports
	b = append(b, make([]byte, 24)...) // latencies/timestamps
	b = append(b, 0)                   // no queues
	return b
}

// FuzzUnmarshalProbeInto drives the probe decoder with arbitrary bytes. The
// codec is the trust boundary of live mode — payloads arrive from real
// sockets — so beyond not panicking, decoding must behave identically into
// a dirty reused scratch payload (the ingest path never hands it a zero
// one), and every accepted payload must re-encode and re-decode to a fixed
// point. Seeds cover both wire versions, a sampled (mode 1) probe, and forged
// record/queue counts (the guarded header-claims-more-than-the-bytes-carry
// shape).
func FuzzUnmarshalProbeInto(f *testing.F) {
	v2 := samplePayload()
	v2.HopCount = len(v2.Stack.Records)
	for i := range v2.Stack.Records {
		v2.Stack.Records[i].HopIndex = i
	}
	valid, err := MarshalProbe(v2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(fuzzSeedV1())
	// A sampled probe: mode byte 1 with a non-zero sample rate.
	sampled := append([]byte(nil), valid...)
	sampled[4], sampled[5], sampled[6] = 1, 0x40, 0
	f.Add(sampled)
	// Forged record count: a header claiming 255 records backed by none.
	forged := append([]byte(nil), valid...)
	forged[len(forged)-1] = 0xff
	f.Add(forged[:len(valid)-4])
	// Forged queue count inside the last record.
	forgedQ := append([]byte(nil), valid...)
	forgedQ[len(forgedQ)-1] = 0xff
	f.Add(forgedQ)
	f.Add([]byte{0x01, 0x03, 3, 0}) // unsupported version
	f.Add([]byte{})
	// Cadence-directive frames share the probe return path, so they also
	// land here: a well-formed directive, a truncated one, one with an
	// unknown version byte, and one with a forged (oversized) length. All
	// must decode as "not a probe" without wedging the decoder, and
	// DecodeDirective must treat the malformed ones as no-directive.
	dir := EncodeDirective(CadenceDirective{Interval: 250 * 1000 * 1000, Seq: 42})
	f.Add(dir)
	f.Add(dir[:DirectiveWireSize-6])
	badVer := append([]byte(nil), dir...)
	badVer[2] = 0x7f
	f.Add(badVer)
	f.Add(append(append([]byte(nil), dir...), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, data []byte) {
		// DecodeDirective never errors and never panics: arbitrary bytes are
		// either a well-formed current-version frame or "no directive".
		if d, ok := DecodeDirective(data); ok {
			if len(data) != DirectiveWireSize {
				t.Fatalf("accepted a directive frame of %d bytes", len(data))
			}
			if d.Interval <= 0 {
				t.Fatalf("accepted non-positive interval %v", d.Interval)
			}
			if data[2] != directiveVersion {
				t.Fatalf("accepted unknown directive version %#x", data[2])
			}
			reenc := EncodeDirective(d)
			if d2, ok2 := DecodeDirective(reenc); !ok2 || d2 != d {
				t.Fatalf("directive round-trip diverged: %+v -> %+v (ok=%v)", d, d2, ok2)
			}
		}
		var fresh ProbePayload
		freshErr := UnmarshalProbeInto(&fresh, data)

		// The ingest path reuses one scratch payload across probes:
		// whatever the previous probe left behind must not change the
		// outcome or the result.
		var dirty ProbePayload
		if err := UnmarshalProbeInto(&dirty, valid); err != nil {
			t.Fatalf("decoding the valid seed failed: %v", err)
		}
		dirtyErr := UnmarshalProbeInto(&dirty, data)
		if (freshErr == nil) != (dirtyErr == nil) {
			t.Fatalf("scratch reuse changed the outcome: fresh=%v dirty=%v", freshErr, dirtyErr)
		}
		if freshErr != nil {
			return
		}

		// Accepted payloads re-encode (all decoded fields are within wire
		// limits by construction) and reach an encode/decode fixed point.
		encFresh, err := MarshalProbe(&fresh)
		if err != nil {
			t.Fatalf("accepted payload failed to re-encode: %v\npayload: %+v", err, fresh)
		}
		encDirty, err := MarshalProbe(&dirty)
		if err != nil {
			t.Fatalf("dirty-scratch decode failed to re-encode: %v", err)
		}
		if !bytes.Equal(encFresh, encDirty) {
			t.Fatalf("dirty-scratch decode diverged:\nfresh %x\ndirty %x", encFresh, encDirty)
		}
		var again ProbePayload
		if err := UnmarshalProbeInto(&again, encFresh); err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		encAgain, err := MarshalProbe(&again)
		if err != nil {
			t.Fatalf("re-decoded payload failed to re-encode: %v", err)
		}
		if !bytes.Equal(encFresh, encAgain) {
			t.Fatalf("encode/decode not a fixed point:\nfirst  %x\nsecond %x", encFresh, encAgain)
		}
		if n := len(fresh.Stack.Records); n > 255 {
			t.Fatalf("decoded %d records from a u8 count", n)
		}
	})
}
