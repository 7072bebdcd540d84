package collector

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// StreamSignals assembles the adaptive controller's per-stream churn digest:
// sorted order, ages, path devices, remap counts, windowed queue variance,
// and tombstoned path edges.
func TestStreamSignalsBasics(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n2", 1, time.Millisecond,
		devSpec{id: "s2", out: 1, egressTS: clk.now}))
	clk.now += 20 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 3, time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: 4}, egressTS: clk.now},
		devSpec{id: "s3", in: 2, out: 3, egressTS: clk.now}))
	clk.now += 30 * time.Millisecond

	sigs := c.StreamSignals()
	if len(sigs) != 2 {
		t.Fatalf("got %d signals, want 2", len(sigs))
	}
	if sigs[0].Origin != "n1" || sigs[1].Origin != "n2" {
		t.Fatalf("signals not sorted by origin: %+v", sigs)
	}
	n1 := sigs[0]
	if n1.Seq != 3 || n1.Age != 30*time.Millisecond {
		t.Fatalf("n1 seq/age %d/%v, want 3/30ms", n1.Seq, n1.Age)
	}
	if !reflect.DeepEqual(n1.Devices, []string{"s1", "s3"}) {
		t.Fatalf("n1 devices %v, want interior path", n1.Devices)
	}
	if n1.Remaps != 0 || n1.EvictedOnPath != 0 {
		t.Fatalf("fresh stream shows churn: %+v", n1)
	}
	if n2 := sigs[1]; n2.Age != 50*time.Millisecond || len(n2.Devices) != 1 {
		t.Fatalf("n2 signal %+v", n2)
	}
}

func TestStreamSignalsCountsRemaps(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond,
		devSpec{id: "s1", out: 1, egressTS: clk.now}))
	clk.now += 10 * time.Millisecond
	// Same stream, different hop sequence: a path remap.
	c.HandleProbe(probeFrom("n1", 2, time.Millisecond,
		devSpec{id: "s2", out: 1, egressTS: clk.now}))
	clk.now += 10 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 3, time.Millisecond,
		devSpec{id: "s2", out: 1, egressTS: clk.now}))

	sigs := c.StreamSignals()
	if len(sigs) != 1 || sigs[0].Remaps != 1 {
		t.Fatalf("signals %+v, want one stream with one remap", sigs)
	}
	if !reflect.DeepEqual(sigs[0].Devices, []string{"s2"}) {
		t.Fatalf("devices %v, want the post-remap path", sigs[0].Devices)
	}
}

func TestStreamSignalsQueueVariance(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	// Two in-window reports, queue 2 then 6: sample variance 8.
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond,
		devSpec{id: "s1", out: 1, queues: map[int]int{1: 2}, egressTS: clk.now}))
	clk.now += 50 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 2, time.Millisecond,
		devSpec{id: "s1", out: 1, queues: map[int]int{1: 6}, egressTS: clk.now}))

	sigs := c.StreamSignals()
	if len(sigs) != 1 {
		t.Fatalf("got %d signals", len(sigs))
	}
	if v := sigs[0].QueueVar; v < 7.99 || v > 8.01 {
		t.Fatalf("queue variance %v, want 8 (samples 2 and 6)", v)
	}
	// Past the window the reports age out and the variance collapses.
	clk.now += time.Hour
	if v := c.StreamSignals()[0].QueueVar; v != 0 {
		t.Fatalf("stale variance %v, want 0", v)
	}
}

// TestStreamSignalsQueueVarianceAcrossRecuts: the variance is taken over
// exactly the in-window reports while the windows behind it slide, drop
// their dead prefixes and move to new arrays. The reference is a two-pass
// variance over an independently kept list of every value reported.
func TestStreamSignalsQueueVarianceAcrossRecuts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk) // 200 ms queue window
	type sample struct {
		at time.Duration
		q  int
	}
	var all []sample
	var base *queueReport
	moves := 0
	for seq := uint64(1); seq <= 1500; seq++ {
		clk.now += time.Duration(1+rng.Intn(8)) * time.Millisecond
		queues := map[int]int{1: rng.Intn(40), 2: rng.Intn(5)}
		for _, q := range queues {
			all = append(all, sample{clk.now, q})
		}
		c.HandleProbe(probeFrom("n1", seq, time.Millisecond,
			devSpec{id: "s1", out: 1, queues: queues, egressTS: clk.now}))
		if b := &c.nodeLocked("s1").ports[1].reports.buf[0]; b != base {
			base, moves = b, moves+1
		}
		if rng.Intn(3) == 0 {
			clk.now += time.Duration(rng.Intn(60)) * time.Millisecond // read some way past the last prune
		}

		var in []float64
		var sum float64
		for _, s := range all {
			if s.at >= clk.now-200*time.Millisecond {
				in, sum = append(in, float64(s.q)), sum+float64(s.q)
			}
		}
		want, n := 0.0, float64(len(in))
		if len(in) >= 2 {
			for _, x := range in {
				want += (x - sum/n) * (x - sum/n)
			}
			want /= n - 1
		}
		if got := c.StreamSignals()[0].QueueVar; math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("seq %d: QueueVar %v, two-pass reference %v over %v reports", seq, got, want, n)
		}
	}
	if moves < 10 {
		t.Fatalf("port window moved arrays %d times, want the run to cross many recuts", moves)
	}
}

func TestStreamSignalsSeeTombstonedEdges(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now},
		devSpec{id: "s3", in: 2, out: 3, egressTS: clk.now}))
	// Age every edge past the TTL (5 × 200ms window) and trigger the prune.
	clk.now += 2 * time.Second
	c.Snapshot()

	sigs := c.StreamSignals()
	if len(sigs) != 1 {
		t.Fatalf("got %d signals", len(sigs))
	}
	// Path n1–s1–s3–sched: all three hops tombstoned.
	if sigs[0].EvictedOnPath != 3 {
		t.Fatalf("EvictedOnPath = %d, want all 3 path edges", sigs[0].EvictedOnPath)
	}
}

// StreamSignals is a pure read: calling it must not perturb collector
// state, snapshots, or stats.
func TestStreamSignalsIsPureRead(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond,
		devSpec{id: "s1", out: 1, queues: map[int]int{1: 3}, egressTS: clk.now}))
	before := c.Stats()
	a := c.StreamSignals()
	b := c.StreamSignals()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated reads diverged:\n%+v\n%+v", a, b)
	}
	if c.Stats() != before {
		t.Fatalf("StreamSignals changed stats: %+v -> %+v", before, c.Stats())
	}
	// Mutating the returned slice must not reach collector state.
	a[0].Devices[0] = "corrupted"
	if got := c.StreamSignals()[0].Devices[0]; got != "s1" {
		t.Fatalf("returned Devices aliases collector state: %q", got)
	}
}
