package collector

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotPointerIdentityPerEpoch: equal epochs must return the
// identical *Topology — the whole point of epoch-versioned snapshots is
// that readers share one immutable copy until state changes.
func TestSnapshotPointerIdentityPerEpoch(t *testing.T) {
	c, _ := buildDiamond(t)
	e0 := c.Epoch()
	if e0 == 0 {
		t.Fatal("accepted probes did not advance the epoch")
	}
	t1 := c.Snapshot()
	t2 := c.Snapshot()
	if t1 != t2 {
		t.Fatal("same epoch returned distinct snapshot pointers")
	}
	if t1.Epoch() != e0 {
		t.Fatalf("snapshot epoch %d, collector epoch %d", t1.Epoch(), e0)
	}
}

// TestSnapshotRebuildsOnEpochAdvance: an accepted probe must invalidate the
// cached snapshot; the stale pointer keeps its old (immutable) contents.
func TestSnapshotRebuildsOnEpochAdvance(t *testing.T) {
	c, clk := buildDiamond(t)
	old := c.Snapshot()
	oldEpoch := c.Epoch()

	clk.now += 10 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 3, 50*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: 60}, egressTS: clk.now},
		devSpec{id: "s2", in: 0, out: 1, egressTS: clk.now},
		devSpec{id: "s4", in: 0, out: 2, egressTS: clk.now}))

	if c.Epoch() <= oldEpoch {
		t.Fatalf("epoch did not advance: %d -> %d", oldEpoch, c.Epoch())
	}
	fresh := c.Snapshot()
	if fresh == old {
		t.Fatal("snapshot not rebuilt after epoch advance")
	}
	if fresh.Epoch() <= old.Epoch() {
		t.Fatalf("fresh snapshot epoch %d not past %d", fresh.Epoch(), old.Epoch())
	}
	// Immutability: the superseded snapshot must not see the new report.
	if q, _ := old.QueueMax("s1", "s2"); q == 60 {
		t.Fatal("old snapshot sees post-snapshot queue report")
	}
	if q, _ := fresh.QueueMax("s1", "s2"); q != 60 {
		t.Fatalf("fresh snapshot queue %d, want 60", q)
	}
}

// TestOutOfOrderProbeDoesNotAdvanceEpoch: dropped probes mutate nothing the
// snapshot can see, so the cached snapshot must survive them.
func TestOutOfOrderProbeDoesNotAdvanceEpoch(t *testing.T) {
	c, clk := buildDiamond(t)
	snap := c.Snapshot()
	epoch := c.Epoch()
	clk.now += time.Millisecond
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond, // seq 1 already superseded by seq 2
		devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: 99}, egressTS: clk.now}))
	if c.Epoch() != epoch {
		t.Fatalf("dropped probe advanced epoch %d -> %d", epoch, c.Epoch())
	}
	if c.Snapshot() != snap {
		t.Fatal("dropped probe invalidated the cached snapshot")
	}
}

// TestSnapshotRebuildsOnQueueWindowExpiry: windowed queue maxima depend on
// the clock, not just the epoch. Once an in-window report ages out, a
// cached snapshot would overstate congestion; Snapshot must rebuild even
// though no probe arrived.
func TestSnapshotRebuildsOnQueueWindowExpiry(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk) // 200 ms queue window
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond,
		devSpec{id: "s1", out: 1, queues: map[int]int{1: 30}, egressTS: clk.now}))
	cached := c.Snapshot()
	if q, ok := cached.QueueMax("s1", "sched"); !ok || q != 30 {
		t.Fatalf("queue %d,%v want 30", q, ok)
	}
	// Still inside the window: cache holds.
	clk.now += 100 * time.Millisecond
	if c.Snapshot() != cached {
		t.Fatal("snapshot rebuilt while report still in window")
	}
	// Past the window: the report expired, a rebuild must drop it.
	clk.now += 150 * time.Millisecond
	fresh := c.Snapshot()
	if fresh == cached {
		t.Fatal("snapshot not rebuilt after queue report expiry")
	}
	if _, ok := fresh.QueueMax("s1", "sched"); ok {
		t.Fatal("expired queue report visible in fresh snapshot")
	}
	// The expiry-driven rebuild must advance the epoch: downstream caches
	// (core's rank cache) invalidate by epoch comparison only, so publishing
	// changed queue maxima under the old epoch would serve stale rankings.
	if fresh.Epoch() <= cached.Epoch() {
		t.Fatalf("expiry rebuild kept epoch %d; equal epochs must mean identical snapshots", fresh.Epoch())
	}
	if c.Epoch() != fresh.Epoch() {
		t.Fatalf("collector epoch %d disagrees with snapshot epoch %d", c.Epoch(), fresh.Epoch())
	}
	// The rebuilt snapshot is cached again.
	if c.Snapshot() != fresh {
		t.Fatal("rebuilt snapshot not cached")
	}
}

// TestSilentDeviceReleasesQueueReports: ingest prunes only the ports a probe
// reports on, so a device that stops reporting is never pruned by ingest
// again. The snapshot that follows its last report's expiry must release
// its windows, its device entry and its flush events, with the same expiry
// and epoch behaviour as TestSnapshotRebuildsOnQueueWindowExpiry.
func TestSilentDeviceReleasesQueueReports(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk) // 200 ms queue window
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond,
		devSpec{id: "s1", out: 1, queues: map[int]int{0: 5, 1: 30, 2: 7}, egressTS: clk.now}))
	held := func(device string) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		held := 0
		for _, w := range c.nodeLocked(device).ports {
			if w != nil {
				held++
			}
		}
		if held == 0 && c.nodeLocked(device).ports != nil {
			t.Fatalf("%s keeps an empty port table", device)
		}
		return held
	}
	// flushes counts the flush events still queued: one per record whose
	// reports are in the window, gone with them.
	flushes := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.flushes.n
	}
	cached := c.Snapshot()
	if n := held("s1"); n != 3 {
		t.Fatalf("s1 holds %d port windows, want 3", n)
	}
	// s1 falls silent; s2 reports inside what will be the next window.
	clk.now += 150 * time.Millisecond
	c.HandleProbe(probeFrom("n2", 1, time.Millisecond,
		devSpec{id: "s2", out: 1, queues: map[int]int{1: 9}, egressTS: clk.now}))
	if c.Snapshot() == cached {
		t.Fatal("snapshot not rebuilt after a probe")
	}
	if n := held("s1"); n != 3 {
		t.Fatalf("s1 holds %d port windows while its reports are in window, want 3", n)
	}
	// Past s1's window with no further probe from it.
	clk.now += 100 * time.Millisecond
	before := c.Epoch()
	fresh := c.Snapshot()
	if fresh.Epoch() <= before || c.Epoch() != fresh.Epoch() {
		t.Fatalf("expiry rebuild: epoch %d -> snapshot %d, collector %d", before, fresh.Epoch(), c.Epoch())
	}
	if n := held("s1"); n != 0 {
		t.Fatalf("silent s1 still holds %d port windows", n)
	}
	if n := flushes(); n != 1 {
		t.Fatalf("%d flush events queued after s1's expiry, want s2's one", n)
	}
	for port := 0; port < 3; port++ {
		if q, ok := c.MaxQueue("s1", port); ok {
			t.Fatalf("silent s1 port %d answers %d", port, q)
		}
	}
	if _, ok := fresh.QueueMax("s1", "sched"); ok {
		t.Fatal("expired queue report visible in fresh snapshot")
	}
	if q, ok := fresh.QueueMax("s2", "sched"); !ok || q != 9 || held("s2") != 1 {
		t.Fatalf("reporting s2: queue (%d,%v), %d windows", q, ok, held("s2"))
	}
	// The next expiry is s2's, 200 ms after its report.
	clk.now += 50 * time.Millisecond
	if c.Snapshot() != fresh {
		t.Fatal("snapshot rebuilt while s2's report still in window")
	}
	clk.now += 51 * time.Millisecond
	if c.Snapshot() == fresh || held("s2") != 0 || flushes() != 0 {
		t.Fatalf("s2's expiry: %d windows held, %d flush events queued", held("s2"), flushes())
	}
}

// TestConfigChangesAdvanceEpoch: SetLinkRate and SetQueueWindow change what
// snapshots contain, so they must version like probes.
func TestConfigChangesAdvanceEpoch(t *testing.T) {
	c, _ := buildDiamond(t)
	snap := c.Snapshot()
	e := c.Epoch()
	c.SetLinkRate("n1", "s1", 123_000_000)
	if c.Epoch() != e+1 {
		t.Fatalf("SetLinkRate epoch %d, want %d", c.Epoch(), e+1)
	}
	if c.Snapshot() == snap {
		t.Fatal("link-rate change not reflected in a new snapshot")
	}
	if c.Snapshot().LinkRate("n1", "s1") != 123_000_000 {
		t.Fatal("new rate missing")
	}
	e = c.Epoch()
	c.SetQueueWindow(time.Second)
	if c.Epoch() != e+1 {
		t.Fatalf("SetQueueWindow epoch %d, want %d", c.Epoch(), e+1)
	}
}

// TestConcurrentSnapshotReadersWhileProbing exercises the lock-free read
// path under the race detector: many goroutines snapshot and walk paths
// while probes mutate the collector. The clock is atomic because in live
// deployments it is wall-clock-derived and read from many goroutines.
func TestConcurrentSnapshotReadersWhileProbing(t *testing.T) {
	var nowNs atomic.Int64
	nowNs.Store(int64(time.Second))
	advance := func(d time.Duration) { nowNs.Add(int64(d)) }
	c := New("sched", func() time.Duration { return time.Duration(nowNs.Load()) },
		Config{QueueWindow: 200 * time.Millisecond})
	now := func() time.Duration { return time.Duration(nowNs.Load()) }
	c.HandleProbe(probeFrom("n1", 1, 10*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: 2, 2: 8}, egressTS: now()},
		devSpec{id: "s2", in: 0, out: 1, egressTS: now()},
		devSpec{id: "s4", in: 0, out: 2, egressTS: now()},
	))
	c.HandleProbe(probeFrom("n1", 2, 10*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 2, egressTS: now()},
		devSpec{id: "s3", in: 0, out: 1, egressTS: now()},
		devSpec{id: "s4", in: 1, out: 2, egressTS: now()},
	))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				topo := c.Snapshot()
				if _, err := topo.Path("n1", "sched"); err != nil {
					t.Error(err)
					return
				}
				topo.QueueMax("s1", "s2")
				topo.Hosts()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		advance(time.Millisecond)
		c.HandleProbe(probeFrom("n1", uint64(3+i), 10*time.Millisecond,
			devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: i % 10}, egressTS: now()},
			devSpec{id: "s2", in: 0, out: 1, egressTS: now()},
			devSpec{id: "s4", in: 0, out: 2, egressTS: now()},
		))
	}
	close(stop)
	wg.Wait()
}
