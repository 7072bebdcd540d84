package dataplane

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"intsched/internal/telemetry"
)

func TestRegisterMaxSemantics(t *testing.T) {
	p := NewINTProgram("s", 2, INTConfig{})
	for _, q := range []int{5, 3, 9} {
		p.Observe(false, 1, q, 0, 0, false)
	}
	// A probe drives neither register, however long the queue it meets.
	p.Observe(true, 1, 50, 0, 0, false)
	if p.maxQueue[1] != 9 || p.pktCount[1] != 3 {
		t.Fatalf("port 1 max=%d count=%d, want 9 and 3", p.maxQueue[1], p.pktCount[1])
	}
	if p.maxQueue[0] != 0 || p.pktCount[0] != 0 {
		t.Fatalf("port 0 moved: max=%d count=%d", p.maxQueue[0], p.pktCount[0])
	}
}

func TestRegisterSwapFlushes(t *testing.T) {
	p := NewINTProgram("s", 1, INTConfig{})
	p.Observe(false, 0, 42, 0, 0, false)
	var probe telemetry.ProbePayload
	p.Stamp(&probe, Hop{})
	if q, ok := probe.Stack.Records[0].MaxQueueFor(0); !ok || q != 42 {
		t.Fatalf("flush carried %d,%v, want 42", q, ok)
	}
	if p.maxQueue[0] != 0 {
		t.Fatal("flush did not reset the register")
	}
}

func TestRegisterAddAndReset(t *testing.T) {
	p := NewINTProgram("s", 2, INTConfig{})
	for _, port := range []int{0, 0, 1, 0} {
		p.Observe(false, port, 1, 0, 0, false)
	}
	if p.pktCount[0] != 3 || p.pktCount[1] != 1 {
		t.Fatalf("counts %v, want [3 1]", p.pktCount)
	}
	var probe telemetry.ProbePayload
	p.Stamp(&probe, Hop{})
	if got := probe.Stack.Records[0].Queues; got[0].Packets != 3 || got[1].Packets != 1 {
		t.Fatalf("flushed counts %v, want 3 and 1", got)
	}
	if p.pktCount[0] != 0 || p.pktCount[1] != 0 {
		t.Fatalf("counts not reset: %v", p.pktCount)
	}
}

func TestRegisterMaxIsIdempotentProperty(t *testing.T) {
	// Property: after any sequence of observations the register equals the
	// largest queue length submitted (and zero's initial value).
	f := func(vals []int32) bool {
		p := NewINTProgram("s", 1, INTConfig{})
		want := int64(0)
		for _, v := range vals {
			p.Observe(false, 0, int(v), 0, 0, false)
			want = max(want, int64(v))
		}
		return p.maxQueue[0] == want && p.pktCount[0] == int64(len(vals))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestObserveLinkLatency(t *testing.T) {
	p := NewINTProgram("s", 1, INTConfig{})
	for _, c := range []struct {
		name            string
		now, prevEgress time.Duration
		stamped         bool
		want            time.Duration
	}{
		{"stamped", 30, 10, true, 20},
		{"first hop carries no stamp", 30, 0, false, 0},
		{"skewed clock clamps at zero", 10, 30, true, 0},
	} {
		if got := p.Observe(true, 0, 0, c.now, c.prevEgress, c.stamped); got != c.want {
			t.Errorf("%s: link latency %v, want %v", c.name, got, c.want)
		}
	}
}

// fullStack returns MaxRecords records from other devices.
func fullStack() []telemetry.Record {
	recs := make([]telemetry.Record, telemetry.MaxRecords)
	for i := range recs {
		recs[i] = telemetry.Record{Device: "other", HopIndex: i}
	}
	return recs
}

// TestStamp drives every branch of the egress stage on a two-port switch
// whose registers hold max 3/7 and counts 2/5.
func TestStamp(t *testing.T) {
	hop := Hop{InPort: 1, OutPort: 0, LinkLatency: 11, HopLatency: 22, Now: 33}
	staged := []telemetry.PortQueue{{Port: 0, MaxQueue: 3, Packets: 2}, {Port: 1, MaxQueue: 7, Packets: 5}}

	cases := []struct {
		name      string
		probe     telemetry.ProbePayload
		records   int  // records carried afterwards
		inserted  bool // one of them is this device's, and the registers were reset
		truncated bool
	}{
		{name: "deterministic append",
			probe: telemetry.ProbePayload{HopCount: 4}, records: 1, inserted: true},
		{name: "deterministic full: Truncated, registers untouched",
			probe:   telemetry.ProbePayload{HopCount: 4, Stack: telemetry.Stack{Records: fullStack()}},
			records: telemetry.MaxRecords, truncated: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewINTProgram("s", 2, INTConfig{})
			copy(p.maxQueue, []int64{3, 7})
			copy(p.pktCount, []int64{2, 5})
			probe := c.probe
			p.Stamp(&probe, hop)

			if probe.HopCount != 5 {
				t.Errorf("HopCount %d, want 5", probe.HopCount)
			}
			if len(probe.Stack.Records) != c.records || probe.Stack.Truncated != c.truncated {
				t.Fatalf("records=%d truncated=%v, want %d and %v",
					len(probe.Stack.Records), probe.Stack.Truncated, c.records, c.truncated)
			}
			var mine []telemetry.Record
			for _, r := range probe.Stack.Records {
				if r.Device == "s" {
					mine = append(mine, r)
				}
			}
			if !c.inserted {
				if len(mine) != 0 || p.maxQueue[1] != 7 || p.pktCount[1] != 5 {
					t.Fatalf("no insertion expected: records %v, registers %v %v", mine, p.maxQueue, p.pktCount)
				}
				return
			}
			if len(mine) != 1 {
				t.Fatalf("%d records from this device, want 1", len(mine))
			}
			want := telemetry.Record{Device: "s", HopIndex: 4, IngressPort: 1, EgressPort: 0,
				LinkLatency: 11, HopLatency: 22, EgressTS: 33, Queues: staged}
			if got := mine[0]; !reflect.DeepEqual(got, want) {
				t.Errorf("record %v, want %v", got, want)
			}
			for port := range p.maxQueue {
				if p.maxQueue[port] != 0 || p.pktCount[port] != 0 {
					t.Errorf("port %d not reset: max=%d count=%d", port, p.maxQueue[port], p.pktCount[port])
				}
			}
		})
	}
}

// TestStampReusesPayloadSlot pins the contract the live switch's per-port
// scratch payload relies on: a record slot revived from a reused payload
// keeps its Queues backing array, so stamping allocates nothing.
func TestStampReusesPayloadSlot(t *testing.T) {
	p := NewINTProgram("s", 4, INTConfig{})
	recs := make([]telemetry.Record, 2)
	backing := make([]telemetry.PortQueue, 4)
	recs[1].Queues = backing[:2]
	probe := telemetry.ProbePayload{}

	allocs := testing.AllocsPerRun(100, func() {
		probe.HopCount = 1
		probe.Stack.Records = recs[:1]
		p.Stamp(&probe, Hop{})
	})
	if allocs != 0 {
		t.Errorf("%v allocs per stamped probe, want 0", allocs)
	}
	got := probe.Stack.Records
	if len(got) != 2 || &got[1] != &recs[1] || len(got[1].Queues) != 4 || &got[1].Queues[0] != &backing[0] {
		t.Fatalf("slot or its Queues backing was not reused: %v", got)
	}
}
