package wire

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestDatagramRoundTrip(t *testing.T) {
	d := &Datagram{
		Kind:     KindProbe,
		TTL:      17,
		Src:      "n1",
		Dst:      "sched",
		SentAtNs: 123456789,
		EgressTS: 987654321,
		Payload:  []byte("hello telemetry"),
	}
	b, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalDatagram(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != d.Kind || got.TTL != d.TTL || got.Src != d.Src || got.Dst != d.Dst ||
		got.SentAtNs != d.SentAtNs || got.EgressTS != d.EgressTS ||
		!bytes.Equal(got.Payload, d.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, d)
	}
}

func TestDatagramEmptyPayload(t *testing.T) {
	d := &Datagram{Kind: KindData, TTL: 1, Src: "a", Dst: "b"}
	b, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalDatagram(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload %v", got.Payload)
	}
}

func TestDatagramValidation(t *testing.T) {
	long := strings.Repeat("x", 300)
	if _, err := (&Datagram{Src: long, Dst: "b"}).Marshal(); err == nil {
		t.Error("overlong src accepted")
	}
	if _, err := (&Datagram{Src: "a", Dst: "b", Payload: make([]byte, 70000)}).Marshal(); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestUnmarshalDatagramMalformed(t *testing.T) {
	if _, err := UnmarshalDatagram(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := UnmarshalDatagram(make([]byte, 10)); err == nil {
		t.Error("short accepted")
	}
	good, _ := (&Datagram{Src: "a", Dst: "b", Payload: []byte("xy")}).Marshal()
	bad := append([]byte(nil), good...)
	bad[0] = 0
	if _, err := UnmarshalDatagram(bad); err == nil {
		t.Error("bad magic accepted")
	}
	for i := 1; i < len(good); i++ {
		if _, err := UnmarshalDatagram(good[:i]); err == nil {
			t.Errorf("prefix %d accepted", i)
		}
	}
}

func TestDatagramPropertyRoundTrip(t *testing.T) {
	f := func(kind uint8, ttl uint8, src, dst string, sent, egress int64, payload []byte) bool {
		if len(src) > MaxNodeName || len(dst) > MaxNodeName || len(payload) > 65535 {
			return true
		}
		d := &Datagram{Kind: Kind(kind), TTL: ttl, Src: src, Dst: dst,
			SentAtNs: sent, EgressTS: egress, Payload: payload}
		b, err := d.Marshal()
		if err != nil {
			return false
		}
		got, err := UnmarshalDatagram(b)
		if err != nil {
			return false
		}
		return got.Kind == d.Kind && got.TTL == d.TTL && got.Src == src &&
			got.Dst == dst && got.SentAtNs == sent && got.EgressTS == egress &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
