package collector

import (
	"sort"
	"testing"
	"time"

	"intsched/internal/telemetry"
)

// fakeClock is a settable time source.
type fakeClock struct{ now time.Duration }

func (f *fakeClock) Now() time.Duration { return f.now }

// edgeKey names a directed edge by its endpoints: the key of the tests'
// by-name reference maps.
type edgeKey struct{ from, to string }

// nodeLocked returns the state of the node name, nil if it was never interned.
func (c *Collector) nodeLocked(name string) *nodeState {
	if id, ok := c.ids[name]; ok {
		return c.nodes.at(id)
	}
	return nil
}

// sortedKeys returns the sorted keys of a string-keyed bool map.
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// probeFrom builds a probe payload from origin traversing the given devices
// with uniform link latency and per-device queue reports.
func probeFrom(origin string, seq uint64, linkLat time.Duration, devs ...devSpec) *telemetry.ProbePayload {
	p := &telemetry.ProbePayload{Origin: origin, Seq: seq}
	for _, d := range devs {
		rec := telemetry.Record{
			Device:      d.id,
			IngressPort: d.in,
			EgressPort:  d.out,
			LinkLatency: linkLat,
			EgressTS:    d.egressTS,
		}
		for port, q := range d.queues {
			rec.Queues = append(rec.Queues, telemetry.PortQueue{Port: port, MaxQueue: q, Packets: 10})
		}
		p.Stack.Append(rec)
	}
	return p
}

type devSpec struct {
	id       string
	in, out  int
	queues   map[int]int
	egressTS time.Duration
}

func newTestCollector(clk *fakeClock) *Collector {
	return New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond})
}

func TestTopologyInferenceFromRecordOrder(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 1, 10*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, egressTS: 990 * time.Millisecond},
		devSpec{id: "s3", in: 2, out: 3, egressTS: 995 * time.Millisecond},
		devSpec{id: "s4", in: 0, out: 1, egressTS: 999 * time.Millisecond},
	))
	topo := c.Snapshot()
	// Paper example: records in s1-s3-s4 order imply s1–s3 and s3–s4.
	pairs := [][2]string{{"n1", "s1"}, {"s1", "s3"}, {"s3", "s4"}, {"s4", "sched"}}
	for _, pr := range pairs {
		found := false
		for _, nb := range topo.Neighbors(pr[0]) {
			if nb == pr[1] {
				found = true
			}
		}
		if !found {
			t.Errorf("edge %s-%s not learned; neighbors(%s)=%v", pr[0], pr[1], pr[0], topo.Neighbors(pr[0]))
		}
	}
	if !topo.IsHost("n1") || !topo.IsHost("sched") {
		t.Error("hosts not marked")
	}
	if topo.IsHost("s3") {
		t.Error("switch marked as host")
	}
}

func TestLinkDelayEWMA(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{DelayAlpha: 0.5})
	for i := 0; i < 5; i++ {
		clk.now += 100 * time.Millisecond
		c.HandleProbe(probeFrom("n1", uint64(i+1), 10*time.Millisecond,
			devSpec{id: "s1", out: 1, egressTS: clk.now - time.Millisecond}))
	}
	d, ok := c.LinkDelay("n1", "s1")
	if !ok {
		t.Fatal("no delay learned")
	}
	if d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("EWMA %v, want ≈10ms", d)
	}
	// Jump the samples to 30ms and verify the EWMA moves toward it.
	for i := 5; i < 10; i++ {
		clk.now += 100 * time.Millisecond
		c.HandleProbe(probeFrom("n1", uint64(i+1), 30*time.Millisecond,
			devSpec{id: "s1", out: 1, egressTS: clk.now - time.Millisecond}))
	}
	d2, _ := c.LinkDelay("n1", "s1")
	if d2 <= d || d2 < 25*time.Millisecond {
		t.Fatalf("EWMA did not track change: %v -> %v", d, d2)
	}
}

func TestQueueWindowMaxAndExpiry(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond,
		devSpec{id: "s1", out: 1, queues: map[int]int{1: 30}, egressTS: clk.now}))
	clk.now += 100 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 2, time.Millisecond,
		devSpec{id: "s1", out: 1, queues: map[int]int{1: 5}, egressTS: clk.now}))
	// Within the 200ms window, the max of both reports (30) wins.
	if q, ok := c.MaxQueue("s1", 1); !ok || q != 30 {
		t.Fatalf("windowed max %d,%v want 30", q, ok)
	}
	// Advance past the first report's window: only 5 remains.
	clk.now += 150 * time.Millisecond
	if q, ok := c.MaxQueue("s1", 1); !ok || q != 5 {
		t.Fatalf("after expiry %d,%v want 5", q, ok)
	}
	// Far future: nothing in window.
	clk.now += time.Hour
	if _, ok := c.MaxQueue("s1", 1); ok {
		t.Fatal("stale queue report still visible")
	}
}

func TestOutOfOrderProbesIgnored(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 5, time.Millisecond,
		devSpec{id: "s1", out: 1, queues: map[int]int{1: 9}, egressTS: clk.now}))
	clk.now += 50 * time.Millisecond
	// Older seq arrives late with a huge queue value: must be dropped.
	c.HandleProbe(probeFrom("n1", 4, time.Millisecond,
		devSpec{id: "s1", out: 1, queues: map[int]int{1: 60}, egressTS: clk.now}))
	if q, _ := c.MaxQueue("s1", 1); q != 9 {
		t.Fatalf("stale probe applied: q=%d", q)
	}
	if got := c.Stats().ProbesOutOfOrder; got != 1 {
		t.Fatalf("out-of-order counter %d", got)
	}
}

func TestDirectHostProbe(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 1, 0)) // no switches between
	topo := c.Snapshot()
	if _, err := topo.Path("n1", "sched"); err != nil {
		t.Fatalf("no path for directly attached host: %v", err)
	}
}

func TestCoverage(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{StaleAfter: time.Second})
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond,
		devSpec{id: "s1", out: 1, egressTS: clk.now},
		devSpec{id: "s2", out: 1, egressTS: clk.now}))
	clk.now += 500 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 2, time.Millisecond,
		devSpec{id: "s1", out: 1, egressTS: clk.now}))
	clk.now += 700 * time.Millisecond
	rep := c.Coverage()
	if len(rep.Fresh) != 1 || rep.Fresh[0] != "s1" {
		t.Fatalf("fresh %v", rep.Fresh)
	}
	if len(rep.Stale) != 1 || rep.Stale[0] != "s2" {
		t.Fatalf("stale %v", rep.Stale)
	}
	if rep.LastSeen["s2"] != time.Second {
		t.Fatalf("lastSeen %v", rep.LastSeen)
	}
}

func TestSetLinkRateAndTopologyRate(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{DefaultLinkRateBps: 20_000_000})
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond,
		devSpec{id: "s1", out: 1, egressTS: clk.now}))
	c.SetLinkRate("n1", "s1", 100_000_000)
	topo := c.Snapshot()
	if topo.LinkRate("n1", "s1") != 100_000_000 || topo.LinkRate("s1", "n1") != 100_000_000 {
		t.Fatal("override not applied symmetrically")
	}
	if topo.LinkRate("s1", "sched") != 20_000_000 {
		t.Fatal("default rate not used for unconfigured link")
	}
}

func TestLinkJitterTracking(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	// Alternate 8ms and 12ms samples: mean 10ms, sample stddev ≈ 2.07ms.
	for i := 0; i < 10; i++ {
		clk.now += 100 * time.Millisecond
		lat := 8 * time.Millisecond
		if i%2 == 1 {
			lat = 12 * time.Millisecond
		}
		c.HandleProbe(probeFrom("n1", uint64(i+1), lat,
			devSpec{id: "s1", out: 1, egressTS: clk.now - time.Millisecond}))
	}
	j, ok := c.LinkJitter("n1", "s1")
	if !ok {
		t.Fatal("no jitter measured")
	}
	if j < 1500*time.Microsecond || j > 2500*time.Microsecond {
		t.Fatalf("jitter %v, want ≈2.1ms", j)
	}
	if _, ok := c.LinkJitter("ghost", "s1"); ok {
		t.Fatal("phantom jitter")
	}
	// Single-sample links report no jitter.
	c2 := newTestCollector(clk)
	c2.HandleProbe(probeFrom("n9", 1, 10*time.Millisecond,
		devSpec{id: "s9", out: 1, egressTS: clk.now}))
	if _, ok := c2.LinkJitter("n9", "s9"); ok {
		t.Fatal("jitter from a single sample")
	}
}
