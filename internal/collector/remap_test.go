package collector

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// Aging and live re-mapping tests. QueueWindow is 200 ms throughout, so the
// derived adjacency TTL is DefaultAdjacencyWindows × 200 ms = 1 s.

func TestAdjacencyAgesOutAndPathErrors(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 1, 5*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now}))
	topo := c.Snapshot()
	if _, err := topo.Path("n1", "sched"); err != nil {
		t.Fatalf("fresh path: %v", err)
	}
	e1 := c.Epoch()

	// Silence past the TTL: the next Snapshot call must evict, and because
	// the eviction rides the expiry-triggered rebuild, the epoch advances.
	clk.now += 1500 * time.Millisecond
	topo = c.Snapshot()
	if c.Epoch() == e1 {
		t.Fatal("epoch did not advance across adjacency eviction")
	}
	if _, err := topo.Path("n1", "sched"); err == nil {
		t.Fatal("Path succeeded over evicted links")
	}
	st := c.Stats()
	if st.AdjacencyEvictions == 0 {
		t.Fatal("no evictions counted")
	}
	ev := c.EvictedEdges()
	if len(ev) == 0 {
		t.Fatal("no tombstones listed")
	}
	found := false
	for _, e := range ev {
		if e.From == "n1" && e.To == "s1" {
			found = true
			if e.Since < 0 {
				t.Errorf("negative tombstone age %v", e.Since)
			}
		}
	}
	if !found {
		t.Fatalf("n1->s1 not tombstoned: %+v", ev)
	}
}

func TestAgingIsPerEdgeAndRelearnClearsTombstone(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	seq := uint64(0)
	probeBoth := func() {
		seq++
		c.HandleProbe(probeFrom("n1", seq, 5*time.Millisecond,
			devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now}))
		c.HandleProbe(probeFrom("n2", seq, 5*time.Millisecond,
			devSpec{id: "s2", in: 0, out: 1, egressTS: clk.now}))
	}
	probeBoth()
	// n1's stream keeps running; n2 goes silent.
	for i := 0; i < 20; i++ {
		clk.now += 100 * time.Millisecond
		seq++
		c.HandleProbe(probeFrom("n1", seq, 5*time.Millisecond,
			devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now}))
	}
	topo := c.Snapshot()
	if _, err := topo.Path("n1", "sched"); err != nil {
		t.Fatalf("live path evicted: %v", err)
	}
	if _, err := topo.Path("n2", "sched"); err == nil {
		t.Fatal("silent path survived 2s of silence with a 1s TTL")
	}
	if len(c.EvictedEdges()) == 0 {
		t.Fatal("no tombstones for the silent branch")
	}

	// The stream resumes: edges relearned, tombstones cleared.
	seq++
	c.HandleProbe(probeFrom("n2", seq, 5*time.Millisecond,
		devSpec{id: "s2", in: 0, out: 1, egressTS: clk.now}))
	topo = c.Snapshot()
	if _, err := topo.Path("n2", "sched"); err != nil {
		t.Fatalf("relearned path: %v", err)
	}
	for _, e := range c.EvictedEdges() {
		if strings.Contains(e.From+e.To, "s2") {
			t.Fatalf("tombstone survived relearn: %+v", e)
		}
	}
}

func TestEvictionHookReportsDetectionLatency(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond, AdjacencyTTL: 500 * time.Millisecond})
	type evt struct {
		from, to string
		silence  time.Duration
	}
	var got []evt
	c.SetEvictionHook(func(from, to string, silence time.Duration) {
		got = append(got, evt{from, to, silence})
	})
	c.HandleProbe(probeFrom("n1", 1, 5*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now}))
	clk.now += 800 * time.Millisecond
	c.Snapshot()
	if len(got) == 0 {
		t.Fatal("hook not invoked")
	}
	for i, e := range got {
		if e.silence != 800*time.Millisecond {
			t.Errorf("eviction %d silence %v, want 800ms", i, e.silence)
		}
		if i > 0 {
			prev := got[i-1]
			if prev.from > e.from || (prev.from == e.from && prev.to > e.to) {
				t.Errorf("hook order not sorted: %+v", got)
			}
		}
	}
}

func TestNoAdjacencyAgingDisablesEviction(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond, AdjacencyTTL: NoAdjacencyAging})
	c.HandleProbe(probeFrom("n1", 1, 5*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now}))
	clk.now += time.Hour
	topo := c.Snapshot()
	if _, err := topo.Path("n1", "sched"); err != nil {
		t.Fatalf("edge evicted with aging disabled: %v", err)
	}
	if c.Stats().AdjacencyEvictions != 0 {
		t.Fatal("evictions counted with aging disabled")
	}
}

func TestChangedHopSequenceAcceleratesAging(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk) // TTL 1s, window 200ms
	c.HandleProbe(probeFrom("n1", 1, 5*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now}))
	// 100 ms later the same stream arrives via s2: the route moved.
	clk.now += 100 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 2, 5*time.Millisecond,
		devSpec{id: "s2", in: 0, out: 1, egressTS: clk.now}))
	if c.Stats().PathRemaps != 1 {
		t.Fatalf("PathRemaps = %d, want 1", c.Stats().PathRemaps)
	}
	// Abandoned edges expire within 2 queue windows (400 ms), far sooner
	// than their natural deadline (900 ms away).
	clk.now += 500 * time.Millisecond
	topo := c.Snapshot()
	if _, err := topo.Path("n1", "sched"); err != nil {
		t.Fatalf("new route evicted: %v", err)
	}
	hasS1 := false
	for _, nb := range topo.Neighbors("s1") {
		_ = nb
		hasS1 = true
	}
	if hasS1 {
		t.Fatalf("abandoned branch still present: neighbors(s1)=%v", topo.Neighbors("s1"))
	}
	// An unchanged hop sequence is not a remap.
	c2 := newTestCollector(clk)
	c2.HandleProbe(probeFrom("n1", 1, 5*time.Millisecond, devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now}))
	c2.HandleProbe(probeFrom("n1", 2, 5*time.Millisecond, devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now}))
	if c2.Stats().PathRemaps != 0 {
		t.Fatalf("stable stream counted as remap")
	}
}

func TestAdjacencyDeadlineDrivesSnapshotExpiry(t *testing.T) {
	// With no queue reports at all, snapshot expiry must still fire at the
	// adjacency deadline: the cached snapshot cannot outlive the first TTL.
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	p := probeFrom("n1", 1, 5*time.Millisecond, devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now})
	c.HandleProbe(p)
	t1 := c.Snapshot()
	clk.now += 300 * time.Millisecond
	if c.Snapshot() != t1 {
		t.Fatal("snapshot rebuilt before any deadline")
	}
	clk.now += 800 * time.Millisecond // 1.1s after the probe: past the TTL
	t2 := c.Snapshot()
	if t2 == t1 {
		t.Fatal("cached snapshot served past the adjacency deadline")
	}
	if len(t2.Nodes) != 0 {
		t.Fatalf("expired snapshot still has nodes %v", t2.Nodes)
	}
}

// TestEvictionOrderIsByName: the names are interned in reverse lexical order,
// so ids run against names, and every edge ages out in one prune. The hook
// must see the evictions sorted by (from, to) name — not by id, not in the
// edge table's order.
func TestEvictionOrderIsByName(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond, AdjacencyTTL: 500 * time.Millisecond})
	var got []edgeKey
	c.SetEvictionHook(func(from, to string, _ time.Duration) {
		got = append(got, edgeKey{from, to})
	})
	for i := 9; i >= 1; i-- {
		c.HandleProbe(probeFrom(fmt.Sprintf("n%d", i), 1, 5*time.Millisecond,
			devSpec{id: fmt.Sprintf("s%d", i), in: 0, out: 1, egressTS: clk.now}))
	}
	clk.now += 800 * time.Millisecond
	c.Snapshot()
	// Each host's probe learned host<->switch and switch<->sched.
	if len(got) != 4*9 {
		t.Fatalf("%d evictions in one prune, want %d", len(got), 4*9)
	}
	want := slices.Clone(got)
	slices.SortFunc(want, func(a, b edgeKey) int {
		return cmp.Or(strings.Compare(a.from, b.from), strings.Compare(a.to, b.to))
	})
	if !slices.Equal(got, want) {
		t.Fatalf("hook order %v, want by name %v", got, want)
	}
}
