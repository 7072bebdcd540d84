package collector

import (
	"testing"
	"time"

	"intsched/internal/telemetry"
)

// fragSpec describes one sampled hop fragment of a probabilistic probe.
type fragSpec struct {
	hop      int
	id       string
	in, out  int
	link     time.Duration
	egressTS time.Duration
	queues   []telemetry.PortQueue
}

// pintProbe builds a probabilistic probe declaring hops total hops and
// carrying the given sampled fragments.
func pintProbe(origin string, seq uint64, hops int, frags ...fragSpec) *telemetry.ProbePayload {
	p := &telemetry.ProbePayload{
		Origin:     origin,
		Seq:        seq,
		Mode:       telemetry.ModeProbabilistic,
		SampleRate: telemetry.RateToWire(0.5),
		HopCount:   hops,
	}
	for _, f := range frags {
		p.Stack.Append(telemetry.Record{
			Device:      f.id,
			HopIndex:    f.hop,
			IngressPort: f.in,
			EgressPort:  f.out,
			LinkLatency: f.link,
			EgressTS:    f.egressTS,
			Queues:      f.queues,
		})
	}
	return p
}

func neighborSet(c *Collector, node string) map[string]bool {
	out := make(map[string]bool)
	for _, nb := range c.Snapshot().Neighbors(node) {
		out[nb] = true
	}
	return out
}

// TestReassemblyMergesFragments checks successive partial probes assemble
// the full path: a hop unseen so far is a gap (its edges unknown), and the
// probe that samples it completes the picture.
func TestReassemblyMergesFragments(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)

	// Path n1 -> s1 -> s2 -> sched; first probe samples only hop 0.
	c.HandleProbe(pintProbe("n1", 1, 2,
		fragSpec{hop: 0, id: "s1", in: 0, out: 1, egressTS: 990 * time.Millisecond}))
	if nb := neighborSet(c, "n1"); !nb["s1"] {
		t.Fatalf("origin edge not learned from first fragment: %v", nb)
	}
	if nb := neighborSet(c, "s1"); nb["s2"] {
		t.Fatal("edge to an unsampled hop invented")
	}
	if nb := neighborSet(c, "sched"); len(nb) != 0 {
		t.Fatalf("target edge invented before the last hop was sampled: %v", nb)
	}

	// Second probe samples only hop 1: the buffered hop 0 supplies the
	// upstream neighbor, and the target edge completes.
	clk.now += 100 * time.Millisecond
	c.HandleProbe(pintProbe("n1", 2, 2,
		fragSpec{hop: 1, id: "s2", in: 2, out: 3, link: 5 * time.Millisecond,
			egressTS: clk.now - 2*time.Millisecond,
			queues:   []telemetry.PortQueue{{Port: 3, MaxQueue: 9, Packets: 4}}}))
	if nb := neighborSet(c, "s1"); !nb["s2"] {
		t.Fatalf("gap edge not learned after second fragment: %v", nb)
	}
	if nb := neighborSet(c, "sched"); !nb["s2"] {
		t.Fatalf("target edge not learned: %v", nb)
	}
	if d, ok := c.LinkDelay("s1", "s2"); !ok || d != 5*time.Millisecond {
		t.Fatalf("link delay s1->s2 = %v, %v", d, ok)
	}
	if d, ok := c.LinkDelay("s2", "sched"); !ok || d != 2*time.Millisecond {
		t.Fatalf("last-hop delay s2->sched = %v, %v", d, ok)
	}
	if mq, ok := c.MaxQueue("s2", 3); !ok || mq != 9 {
		t.Fatalf("queue report lost in reassembly: %d, %v", mq, ok)
	}

	st := c.Stats()
	if st.RecordsReassembled != 2 || st.RecordsParsed != 2 {
		t.Fatalf("reassembled=%d parsed=%d, want 2/2", st.RecordsReassembled, st.RecordsParsed)
	}
	if st.ReassemblyCompletions != 1 {
		t.Fatalf("completions=%d, want 1 (both hops reported once)", st.ReassemblyCompletions)
	}
	if st.ReassemblyResets != 0 {
		t.Fatalf("unexpected resets: %d", st.ReassemblyResets)
	}
}

// TestReassemblyDuplicateFragment checks a retransmitted probe (same
// sequence number) is sequence-gated before reassembly: its fragments never
// merge twice and never overwrite newer state.
func TestReassemblyDuplicateFragment(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)

	probe := pintProbe("n1", 5, 2,
		fragSpec{hop: 0, id: "s1", out: 1, egressTS: clk.now})
	c.HandleProbe(probe)

	// A newer probe updates hop 0's egress port, then the retransmission
	// of the old probe arrives late.
	clk.now += 50 * time.Millisecond
	c.HandleProbe(pintProbe("n1", 6, 2,
		fragSpec{hop: 0, id: "s1", out: 7, egressTS: clk.now}))
	clk.now += 10 * time.Millisecond
	dup := pintProbe("n1", 5, 2,
		fragSpec{hop: 0, id: "s1", out: 1, egressTS: clk.now})
	c.HandleProbe(dup)

	st := c.Stats()
	if st.ProbesOutOfOrder != 1 {
		t.Fatalf("out-of-order=%d, want 1", st.ProbesOutOfOrder)
	}
	if st.RecordsReassembled != 2 {
		t.Fatalf("reassembled=%d, want 2 (duplicate must not merge)", st.RecordsReassembled)
	}
	// The buffered fragment must still be the newer probe's.
	c.mu.Lock()
	frag := c.reasm[probeKey{origin: "n1"}].frags[0]
	c.mu.Unlock()
	if frag.seq != 6 || frag.rec.EgressPort != 7 {
		t.Fatalf("stale fragment overwrote newer state: seq=%d out=%d", frag.seq, frag.rec.EgressPort)
	}
}

// TestReassemblyFragmentAfterEviction checks a fragment arriving after
// adjacency aging evicted its edges relearns them cleanly (tombstones
// cleared), and that a probe's arrival keep-alives buffered hops that were
// not re-sampled.
func TestReassemblyFragmentAfterEviction(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond})

	c.HandleProbe(pintProbe("n1", 1, 2,
		fragSpec{hop: 0, id: "s1", out: 1, egressTS: clk.now},
		fragSpec{hop: 1, id: "s2", in: 2, out: 3, egressTS: clk.now}))
	if len(c.EvictedEdges()) != 0 {
		t.Fatal("premature evictions")
	}

	// Silence beyond the adjacency TTL (5 windows = 1s) evicts everything.
	clk.now += 3 * time.Second
	c.Snapshot()
	if len(c.EvictedEdges()) == 0 {
		t.Fatal("edges not evicted after probe silence")
	}

	// A fragment for hop 0 arrives after the eviction: it must relearn its
	// own edges, and the probe's arrival vouches for the buffered hop 1,
	// keeping the rest of the path alive too.
	c.HandleProbe(pintProbe("n1", 2, 2,
		fragSpec{hop: 0, id: "s1", out: 1, egressTS: clk.now}))
	if got := c.EvictedEdges(); len(got) != 0 {
		t.Fatalf("tombstones not cleared after relearn: %v", got)
	}
	for _, pr := range [][2]string{{"n1", "s1"}, {"s1", "s2"}, {"s2", "sched"}} {
		if nb := neighborSet(c, pr[0]); !nb[pr[1]] {
			t.Fatalf("edge %s-%s not relearned: %v", pr[0], pr[1], nb)
		}
	}
}

// TestReassemblyPathChangeResets checks a fragment contradicting the buffer
// (device change at a hop, or a changed hop count) resets reassembly and
// puts the abandoned edges on accelerated aging.
func TestReassemblyPathChangeResets(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond})

	c.HandleProbe(pintProbe("n1", 1, 2,
		fragSpec{hop: 0, id: "s1", out: 1, egressTS: clk.now},
		fragSpec{hop: 1, id: "s2", in: 2, out: 3, egressTS: clk.now}))

	// The route moves: hop 0 now reports a different device.
	clk.now += 100 * time.Millisecond
	c.HandleProbe(pintProbe("n1", 2, 2,
		fragSpec{hop: 0, id: "s9", out: 1, egressTS: clk.now}))
	st := c.Stats()
	if st.ReassemblyResets != 1 || st.PathRemaps != 1 {
		t.Fatalf("resets=%d remaps=%d, want 1/1", st.ReassemblyResets, st.PathRemaps)
	}
	if nb := neighborSet(c, "n1"); !nb["s9"] {
		t.Fatalf("new path not learned after reset: %v", nb)
	}

	// Accelerated aging: within two queue windows the abandoned s1/s2
	// edges expire while the relearned n1-s9 edge survives.
	clk.now += 500 * time.Millisecond
	c.Snapshot()
	evicted := make(map[string]bool)
	for _, e := range c.EvictedEdges() {
		evicted[e.From+">"+e.To] = true
	}
	if !evicted["s1>s2"] || !evicted["s2>sched"] {
		t.Fatalf("abandoned edges not on accelerated aging: %v", c.EvictedEdges())
	}
	if evicted["n1>s9"] {
		t.Fatal("fresh edge caught by accelerated aging")
	}

	// A changed hop count also resets.
	clk.now += 10 * time.Millisecond
	c.HandleProbe(pintProbe("n1", 3, 3,
		fragSpec{hop: 0, id: "s9", out: 1, egressTS: clk.now}))
	if got := c.Stats().ReassemblyResets; got != 2 {
		t.Fatalf("resets=%d after hop-count change, want 2", got)
	}
}

// TestReassemblyFullRateMatchesDeterministic feeds two collectors the same
// probe stream — one deterministic, one probabilistic with every hop present
// (what a p=1.0 sampler produces) — and requires identical learned state and
// epochs: the acceptance criterion's byte-identity at the collector layer.
func TestReassemblyFullRateMatchesDeterministic(t *testing.T) {
	clkA := &fakeClock{now: time.Second}
	clkB := &fakeClock{now: time.Second}
	det := New("sched", clkA.Now, Config{QueueWindow: 200 * time.Millisecond})
	prob := New("sched", clkB.Now, Config{QueueWindow: 200 * time.Millisecond})

	devs := []devSpec{
		{id: "s1", in: 0, out: 1, queues: map[int]int{1: 4}, egressTS: 990 * time.Millisecond},
		{id: "s2", in: 2, out: 3, queues: map[int]int{3: 11}, egressTS: 995 * time.Millisecond},
		{id: "s3", in: 0, out: 2, queues: map[int]int{2: 0}, egressTS: 999 * time.Millisecond},
	}
	for seq := uint64(1); seq <= 5; seq++ {
		d := probeFrom("n1", seq, 7*time.Millisecond, devs...)
		d.HopCount = len(devs)
		for i := range d.Stack.Records {
			d.Stack.Records[i].HopIndex = i
		}
		p := probeFrom("n1", seq, 7*time.Millisecond, devs...)
		p.Mode = telemetry.ModeProbabilistic
		p.SampleRate = telemetry.RateToWire(1.0)
		p.HopCount = len(devs)
		for i := range p.Stack.Records {
			p.Stack.Records[i].HopIndex = i
		}
		det.HandleProbe(d)
		prob.HandleProbe(p)
		clkA.now += 100 * time.Millisecond
		clkB.now += 100 * time.Millisecond
		// Vary an egress timestamp so last-hop delays stay non-trivial.
		devs[2].egressTS += 100 * time.Millisecond
	}

	if a, b := det.Stats().RecordsParsed, prob.Stats().RecordsParsed; a != b {
		t.Fatalf("records parsed differ: det=%d prob=%d", a, b)
	}
	if a, b := det.Epoch(), prob.Epoch(); a != b {
		t.Fatalf("epochs differ: det=%d prob=%d", a, b)
	}
	nodes := []string{"n1", "s1", "s2", "s3", "sched"}
	for _, n := range nodes {
		a, b := neighborSet(det, n), neighborSet(prob, n)
		if len(a) != len(b) {
			t.Fatalf("neighbors of %s differ: det=%v prob=%v", n, a, b)
		}
		for nb := range a {
			if !b[nb] {
				t.Fatalf("neighbors of %s differ: det=%v prob=%v", n, a, b)
			}
		}
		for _, m := range nodes {
			da, oka := det.LinkDelay(n, m)
			db, okb := prob.LinkDelay(n, m)
			if oka != okb || da != db {
				t.Fatalf("link delay %s->%s differs: det=%v/%v prob=%v/%v", n, m, da, oka, db, okb)
			}
		}
	}
	for _, d := range devs {
		for port := range d.queues {
			ma, oka := det.MaxQueue(d.id, port)
			mb, okb := prob.MaxQueue(d.id, port)
			if oka != okb || ma != mb {
				t.Fatalf("max queue %s:%d differs: det=%d/%v prob=%d/%v", d.id, port, ma, oka, mb, okb)
			}
		}
	}
}

// TestReassemblyCompletionHook checks the reassembly hook fires when the
// last missing hop reports, with the cycle's elapsed time.
func TestReassemblyCompletionHook(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	type completion struct {
		origin, target string
		hops           int
		latency        time.Duration
	}
	var got []completion
	c.SetReassemblyHook(func(origin, target string, hops int, latency time.Duration) {
		got = append(got, completion{origin, target, hops, latency})
	})

	c.HandleProbe(pintProbe("n1", 1, 2,
		fragSpec{hop: 0, id: "s1", out: 1, egressTS: clk.now}))
	if len(got) != 0 {
		t.Fatal("hook fired before the path completed")
	}
	clk.now += 300 * time.Millisecond
	c.HandleProbe(pintProbe("n1", 2, 2,
		fragSpec{hop: 1, id: "s2", in: 2, out: 3, egressTS: clk.now}))
	if len(got) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(got))
	}
	if got[0].origin != "n1" || got[0].target != "sched" || got[0].hops != 2 {
		t.Fatalf("completion %+v", got[0])
	}
	if got[0].latency != 300*time.Millisecond {
		t.Fatalf("cycle latency %v, want 300ms", got[0].latency)
	}
}

// TestReassemblyModeFlip checks a deterministic probe supersedes the
// stream's reassembly buffer, so a fleet rolling between modes never mixes
// fragment state with full paths.
func TestReassemblyModeFlip(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)

	c.HandleProbe(pintProbe("n1", 1, 2,
		fragSpec{hop: 0, id: "s1", out: 1, egressTS: clk.now}))
	buffered := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.reasm[probeKey{origin: "n1"}]
		return ok
	}
	if !buffered() {
		t.Fatal("no reassembly buffer after probabilistic probe")
	}

	clk.now += 100 * time.Millisecond
	d := probeFrom("n1", 2, 5*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now},
		devSpec{id: "s2", in: 2, out: 3, egressTS: clk.now})
	c.HandleProbe(d)
	if buffered() {
		t.Fatal("reassembly buffer survived a deterministic probe")
	}
	// The flip is not a route change: the probabilistic probes left no hop
	// sequence to have moved from, and a counted remap would make the
	// adaptive controller halve the stream's cadence for churn that never
	// happened.
	if got := c.Stats().PathRemaps; got != 0 {
		t.Fatalf("mode flip counted as %d path remaps", got)
	}
	if sig := c.StreamSignals(); len(sig) != 1 || sig[0].Remaps != 0 {
		t.Fatalf("mode flip counted in stream signals: %+v", sig)
	}
	// The deterministic probe's route is the baseline from here on.
	clk.now += 100 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 3, 5*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 2, egressTS: clk.now},
		devSpec{id: "s3", in: 2, out: 3, egressTS: clk.now}))
	if got := c.Stats().PathRemaps; got != 1 {
		t.Fatalf("route change after the flip counted %d remaps, want 1", got)
	}
}
