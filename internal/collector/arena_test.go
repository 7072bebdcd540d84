package collector

import (
	"math/rand"
	"testing"
	"time"

	"intsched/internal/netsim"
)

// Tests for the index-space read path: a randomized cross-check of PathInto
// against the by-name Path view over mutating learned topologies, and a
// per-edge check of the arena's metric slots against the collector's live
// link state.

// TestPathIntoMatchesPath drives a collector through randomized probe-path
// learnings, reroutes, and silence-driven evictions — the same mutation mix
// as the SPT fuzz — and after every mutation compares PathInto (with reused
// scratch, per the store-back idiom) against Path for every node pair, plus
// the out-of-range/unknown argument conventions.
func TestPathIntoMatchesPath(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond})

	origins := []string{"h0", "h1", "h2"}
	switches := []string{"w0", "w1", "w2", "w3", "w4"}
	seqs := map[string]uint64{}

	randomPath := func() []devSpec {
		n := 1 + rng.Intn(3)
		perm := rng.Perm(len(switches))
		devs := make([]devSpec, n)
		for i := 0; i < n; i++ {
			devs[i] = devSpec{id: switches[perm[i]], in: rng.Intn(4), out: rng.Intn(4), egressTS: clk.now}
		}
		return devs
	}

	var scratch []int32
	check := func(iter int) {
		topo := c.Snapshot()
		for _, src := range topo.nodes {
			isrc, ok := topo.NodeIndex(src)
			if !ok {
				t.Fatalf("iter %d: %s in nodes but not in node index", iter, src)
			}
			for _, dst := range topo.nodes {
				idst, _ := topo.NodeIndex(dst)
				want, err := topo.Path(src, dst)
				p, code, _ := topo.PathInto(isrc, idst, scratch)
				scratch = p
				if (err == nil) != (code == PathOK) {
					t.Fatalf("iter %d: Path(%s,%s) err=%v but PathInto code=%v", iter, src, dst, err, code)
				}
				if err != nil {
					continue
				}
				if len(p) != len(want) {
					t.Fatalf("iter %d: PathInto(%s,%s) len %d, Path len %d", iter, src, dst, len(p), len(want))
				}
				for i, idx := range p {
					if topo.NodeName(NodeIdx(idx)) != want[i] {
						t.Fatalf("iter %d: PathInto(%s,%s)[%d]=%s, Path says %s", iter, src, dst, i, topo.NodeName(NodeIdx(idx)), want[i])
					}
				}
			}
			// An unresolvable destination (dst = -1) is never reachable; a
			// src whose adjacency aged out reports unknown-src first, like
			// Path does.
			if _, code, _ := topo.PathInto(isrc, -1, scratch); len(topo.Neighbors(src)) > 0 {
				if code != PathNoRoute {
					t.Fatalf("iter %d: PathInto(%s, -1) code %v, want PathNoRoute", iter, src, code)
				}
			} else if code != PathUnknownSrc {
				t.Fatalf("iter %d: PathInto(%s, -1) code %v, want PathUnknownSrc", iter, src, code)
			}
		}
		if _, code, _ := topo.PathInto(-1, 0, scratch); code != PathUnknownSrc {
			t.Fatalf("iter %d: PathInto(-1, 0) code %v, want PathUnknownSrc", iter, code)
		}
	}

	for iter := 0; iter < 250; iter++ {
		origin := origins[rng.Intn(len(origins))]
		seqs[origin]++
		c.HandleProbe(probeFrom(origin, seqs[origin], time.Duration(1+rng.Intn(10))*time.Millisecond, randomPath()...))
		if rng.Intn(12) == 0 {
			clk.now += 600 * time.Millisecond // long silence: age abandoned edges out
		} else {
			clk.now += time.Duration(20+rng.Intn(120)) * time.Millisecond
		}
		check(iter)
	}
}

// checkSlotAgainstCollector holds the slot DirSlot resolves for u->v equal
// to the collector's live link state: the delay EWMA of the link's
// history, the configured (or default) rate, and the windowed
// queue maximum of the egress port the live adjacency names — or no queue
// value at all when u->v has no adjacency of its own (adjacent says which
// case the caller expects).
func checkSlotAgainstCollector(t *testing.T, c *Collector, topo *Topology, u, v string, rates map[edgeKey]int64, adjacent bool) {
	t.Helper()
	iu, _ := topo.NodeIndex(u)
	iv, _ := topo.NodeIndex(v)
	slot := topo.DirSlot(iu, iv)
	if slot < 0 {
		t.Fatalf("no slot for %s->%s", u, v)
	}
	if adjacent != (slot%2 == 0) {
		t.Fatalf("%s->%s resolved to slot %d, adjacency present=%v", u, v, slot, adjacent)
	}
	wd, wok := c.LinkDelay(u, v)
	if gd, gok := topo.SlotDelay(slot); gd != wd || gok != wok {
		t.Fatalf("SlotDelay(%s->%s)=(%v,%v), collector (%v,%v)", u, v, gd, gok, wd, wok)
	}
	wr, ok := rates[edgeKey{u, v}]
	if !ok {
		wr = DefaultLinkRate
	}
	if g := topo.SlotRate(slot); g != wr {
		t.Fatalf("SlotRate(%s->%s)=%d, configured %d", u, v, g, wr)
	}
	gq, gqok := topo.SlotQueueMax(slot)
	if !adjacent {
		if gqok {
			t.Fatalf("SlotQueueMax(%s->%s)=%d on a direction with no adjacency (no egress port)", u, v, gq)
		}
		return
	}
	// Several ports may lead to one neighbor; the snapshot keeps one of them.
	c.mu.Lock()
	var ports []int
	for port, to := range c.nodeLocked(u).adj {
		if c.nodes.at(to).name == v {
			ports = append(ports, port)
		}
	}
	c.mu.Unlock()
	if len(ports) == 0 {
		t.Fatalf("snapshot edge %s->%s missing from the live adjacency", u, v)
	}
	for _, port := range ports {
		if wq, wqok := c.MaxQueue(u, port); wqok == gqok && (!wqok || wq == gq) {
			return
		}
	}
	t.Fatalf("SlotQueueMax(%s->%s)=(%d,%v) matches none of egress ports %v", u, v, gq, gqok, ports)
}

// TestArenaSlotsMatchCollectorState: after every mutation of a randomized
// probe history, every directed hop a tree walk can cross — each CSR edge
// and, where only the opposite adjacency survives, its reverse — must read
// from the arena exactly what the collector's live state holds.
func TestArenaSlotsMatchCollectorState(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond})
	rates := map[edgeKey]int64{}
	for _, pr := range [][2]string{{"w0", "w1"}, {"h0", "w2"}} {
		c.SetLinkRate(netsim.NodeID(pr[0]), netsim.NodeID(pr[1]), 50_000_000)
		rates[edgeKey{pr[0], pr[1]}] = 50_000_000
		rates[edgeKey{pr[1], pr[0]}] = 50_000_000
	}

	switches := []string{"w0", "w1", "w2", "w3"}
	checked, reverseOnly := 0, 0
	for seq := uint64(1); seq <= 120; seq++ {
		perm := rng.Perm(len(switches))
		n := 1 + rng.Intn(3)
		devs := make([]devSpec, n)
		for i := 0; i < n; i++ {
			devs[i] = devSpec{
				id: switches[perm[i]], in: rng.Intn(4), out: rng.Intn(4),
				queues:   map[int]int{rng.Intn(4): rng.Intn(100)},
				egressTS: clk.now,
			}
		}
		c.HandleProbe(probeFrom("h0", seq, time.Duration(1+rng.Intn(8))*time.Millisecond, devs...))
		clk.now += time.Duration(10+rng.Intn(80)) * time.Millisecond

		topo := c.Snapshot()
		for _, u := range topo.nodes {
			for _, v := range topo.Neighbors(u) {
				checkSlotAgainstCollector(t, c, topo, u, v, rates, true)
				checked++
				if !containsSorted(topo.Neighbors(v), u) {
					checkSlotAgainstCollector(t, c, topo, v, u, rates, false)
					reverseOnly++
				}
			}
		}
	}
	if checked == 0 || reverseOnly == 0 {
		t.Fatalf("fuzz driver broken: %d CSR edges, %d reverse-only hops checked", checked, reverseOnly)
	}
}

// TestReverseSlotOutlivesForwardAdjacency pins the reverse-slot rule on a
// fixed history: w0's port toward w1 is re-learned as leading to w2, so
// w0->w1 leaves the adjacency while w1->w0 stays. A tree walk toward w1
// still crosses w0->w1; its slot must carry that direction's measured
// delay and configured rate, and no queue value — w0's port 1 now feeds
// another link.
func TestReverseSlotOutlivesForwardAdjacency(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond})
	c.SetLinkRate("w0", "w1", 50_000_000)
	rates := map[edgeKey]int64{{"w0", "w1"}: 50_000_000, {"w1", "w0"}: 50_000_000}
	c.HandleProbe(probeFrom("h0", 1, 4*time.Millisecond,
		devSpec{id: "w0", in: 0, out: 1, queues: map[int]int{1: 7}, egressTS: clk.now},
		devSpec{id: "w1", in: 0, out: 1, egressTS: clk.now}))
	c.HandleProbe(probeFrom("h0", 2, 6*time.Millisecond,
		devSpec{id: "w0", in: 0, out: 1, queues: map[int]int{1: 9}, egressTS: clk.now},
		devSpec{id: "w2", in: 0, out: 1, egressTS: clk.now}))
	topo := c.Snapshot()
	if containsSorted(topo.Neighbors("w0"), "w1") || !containsSorted(topo.Neighbors("w1"), "w0") {
		t.Fatalf("setup: neighbors(w0)=%v neighbors(w1)=%v", topo.Neighbors("w0"), topo.Neighbors("w1"))
	}
	if p, err := topo.Path("h0", "w1"); err != nil || len(p) != 3 || p[1] != "w0" {
		t.Fatalf("path h0->w1 = %v, %v; want it to cross w0->w1", p, err)
	}
	if q, ok := c.MaxQueue("w0", 1); !ok || q != 9 {
		t.Fatalf("setup: port w0/1 reports (%d,%v)", q, ok)
	}
	checkSlotAgainstCollector(t, c, topo, "w0", "w1", rates, false)
	if d, ok := topo.LinkDelay("w0", "w1"); !ok || d != 4*time.Millisecond {
		t.Fatalf("w0->w1 delay (%v,%v), want the 4ms measured before the re-learn", d, ok)
	}
	checkSlotAgainstCollector(t, c, topo, "w0", "w2", rates, true)
}
