package collector

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// Tests for the shortest-path trees: a randomized property check against an
// independent from-scratch BFS, walks held to each host's own tree on current
// and superseded snapshots, and targeted tests that a link eviction detours
// the new snapshot's paths while the old one keeps its own, and that
// snapshots of one structure share its trees.

// refNextHops is the independent reference: a from-scratch BFS toward dst
// over the snapshot's public accessors, replicating the deterministic rule
// (sorted frontier, sorted neighbors, first-discoverer-wins, level barrier,
// hosts discovered but never expanded).
func refNextHops(topo *Topology, dst string) map[string]string {
	next := map[string]string{}
	dist := map[string]int{dst: 0}
	frontier := []string{dst}
	for len(frontier) > 0 {
		var nextFrontier []string
		for _, cur := range frontier {
			for _, nb := range topo.Neighbors(cur) {
				if _, ok := dist[nb]; ok {
					continue
				}
				dist[nb] = dist[cur] + 1
				next[nb] = cur
				if !(topo.IsHost(nb) && nb != dst) {
					nextFrontier = append(nextFrontier, nb)
				}
			}
		}
		frontier = nextFrontier
	}
	return next
}

// refPath walks the reference next-hop map from src to dst; nil means
// unreachable.
func refPath(topo *Topology, next map[string]string, src, dst string) []string {
	if src == dst {
		return []string{src}
	}
	if len(topo.Neighbors(src)) == 0 {
		return nil // Path treats adjacency-less nodes as unknown
	}
	path := []string{src}
	for cur := src; cur != dst; {
		nxt, ok := next[cur]
		if !ok {
			return nil
		}
		// Hosts do not forward: a path transiting one is invalid (the BFS
		// never produces this, which the comparison below verifies).
		if cur != src && topo.IsHost(cur) {
			return nil
		}
		path = append(path, nxt)
		cur = nxt
	}
	return path
}

// mutateSPT drives a collector through a randomized sequence of probe-path
// learnings, reroutes (remaps with accelerated aging, which re-home hosts
// onto other switches), direct host-to-host probes, and silence-driven
// evictions, calling visit after every mutation.
func mutateSPT(iters int, visit func(iter int, c *Collector)) {
	rng := rand.New(rand.NewSource(7))
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond})

	origins := []string{"h0", "h1", "h2", "h3"}
	targets := []string{"", "h4"} // "" probes the collector itself
	switches := []string{"w0", "w1", "w2", "w3", "w4", "w5"}
	type streamKey struct{ origin, target string }
	seqs := map[streamKey]uint64{}

	randomPath := func() []devSpec {
		n := rng.Intn(4)
		perm := rng.Perm(len(switches))
		devs := make([]devSpec, n)
		for i := 0; i < n; i++ {
			devs[i] = devSpec{id: switches[perm[i]], in: rng.Intn(4), out: rng.Intn(4), egressTS: clk.now}
		}
		return devs
	}

	for iter := 0; iter < iters; iter++ {
		key := streamKey{origins[rng.Intn(len(origins))], targets[rng.Intn(len(targets))]}
		seqs[key]++
		p := probeFrom(key.origin, seqs[key], time.Duration(1+rng.Intn(10))*time.Millisecond, randomPath()...)
		p.Target = key.target
		if key.target != "" {
			p.LastHopLatency = time.Duration(1+rng.Intn(5)) * time.Millisecond
		}
		c.HandleProbe(p)
		if rng.Intn(12) == 0 {
			clk.now += 600 * time.Millisecond // long silence: age abandoned edges out
		} else {
			clk.now += time.Duration(20+rng.Intn(120)) * time.Millisecond
		}
		visit(iter, c)
	}
}

// TestTreesMatchFromScratchBFS compares, after every mutation of mutateSPT,
// every (src, dst) path walked over the snapshot's trees against the
// reference BFS on the same snapshot.
func TestTreesMatchFromScratchBFS(t *testing.T) {
	var pathBuf []int32
	var slotBuf []Slot
	mutateSPT(400, func(iter int, c *Collector) {
		topo := c.Snapshot()
		for idst, dst := range topo.nodes {
			next := refNextHops(topo, dst)
			for isrc, src := range topo.nodes {
				// The slot walk is the node walk with each hop's slot in
				// place of its far end.
				path, code, at := topo.PathInto(NodeIdx(isrc), NodeIdx(idst), pathBuf)
				slots, scode, sat := topo.SlotsInto(NodeIdx(isrc), NodeIdx(idst), slotBuf)
				pathBuf, slotBuf = path, slots
				if scode != code || sat != at || (code == PathOK && len(slots) != len(path)-1) {
					t.Fatalf("iter %d: SlotsInto(%s,%s) = %d hops, %v at %d; PathInto %d nodes, %v at %d",
						iter, src, dst, len(slots), scode, sat, len(path), code, at)
				}
				for i := 0; code == PathOK && i < len(slots); i++ {
					if want := topo.DirSlot(NodeIdx(path[i]), NodeIdx(path[i+1])); slots[i] != want || want < 0 {
						t.Fatalf("iter %d: hop %s->%s of (%s,%s) walked as slot %d, DirSlot %d",
							iter, topo.nodes[path[i]], topo.nodes[path[i+1]], src, dst, slots[i], want)
					}
				}
				want := refPath(topo, next, src, dst)
				got, err := topo.Path(src, dst)
				if want == nil {
					if err == nil {
						t.Fatalf("iter %d: Path(%s,%s)=%v, reference says unreachable", iter, src, dst, got)
					}
					continue
				}
				if err != nil {
					t.Fatalf("iter %d: Path(%s,%s) error %v, reference %v", iter, src, dst, err, want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("iter %d: Path(%s,%s)=%v, reference %v", iter, src, dst, got, want)
				}
			}
		}
	})
}

// hostTreeWalk is the walk a ranking is held to: from src over tree, the
// destination's own BFS tree (nil for an unknown destination), appending
// each hop's far end or, bySlot, its metric slot.
func hostTreeWalk[E ~int32](topo *Topology, tree *destTree, src, dst NodeIdx, bySlot bool) (out []E, code PathCode, at NodeIdx) {
	if src < 0 || int(src) >= len(topo.nodes) {
		return nil, PathUnknownSrc, src
	}
	if !bySlot {
		out = append(out, E(src))
	}
	if src == dst {
		return out, PathOK, -1
	}
	if len(topo.nbrIdx.s[src]) == 0 {
		return nil, PathUnknownSrc, src
	}
	if tree == nil || tree.next.s[src] == -1 {
		return nil, PathNoRoute, -1
	}
	for cur, hops := src, 0; cur != dst; {
		if cur != src && topo.hostFlag.s[cur] {
			return out, PathHostTransit, cur
		}
		nxt := tree.next.s[cur]
		if nxt < 0 {
			return out, PathBroken, cur
		}
		if bySlot {
			out = append(out, E(tree.slot.s[cur]))
		} else {
			out = append(out, E(nxt))
		}
		cur = nxt
		if hops++; hops > len(topo.nodes) {
			return out, PathLoop, -1
		}
	}
	return out, PathOK, -1
}

// singleHomed reports whether host i's neighbour row is exactly one switch.
func singleHomed(topo *Topology, i NodeIdx) bool {
	row := topo.nbrIdx.s[i]
	return topo.hostFlag.s[i] && len(row) == 1 && !topo.hostFlag.s[row[0]]
}

// checkWalksMatchHostTrees walks from every node (and from one index past
// either end) to every host with an adjacency (and to -1, the unknown
// destination), by PathInto and by SlotsInto, and holds nodes, slots,
// PathCode and at equal to hostTreeWalk over buildDestTree(s, h). It returns
// how many of the hosts were single-homed.
func checkWalksMatchHostTrees(topo *Topology) (singles int, err error) {
	dsts := []NodeIdx{-1}
	for j := range topo.HostCount() {
		if i := topo.HostNodeIndex(j); i >= 0 {
			dsts = append(dsts, i)
			if singleHomed(topo, i) {
				singles++
			}
		}
	}
	var path []int32
	var slots []Slot
	for _, dst := range dsts {
		var tree *destTree
		if dst >= 0 {
			tree = buildDestTree(topo.structure, dst)
		}
		for src := NodeIdx(-1); src <= NodeIdx(len(topo.nodes)); src++ {
			var code PathCode
			var at NodeIdx
			path, code, at = topo.PathInto(src, dst, path)
			want, wcode, wat := hostTreeWalk[int32](topo, tree, src, dst, false)
			if code != wcode || at != wat || !slices.Equal(path, want) {
				return singles, fmt.Errorf("PathInto(%d,%d) = %v, %v at %d; host tree walk %v, %v at %d",
					src, dst, path, code, at, want, wcode, wat)
			}
			slots, code, at = topo.SlotsInto(src, dst, slots)
			wantSlots, wcode, wat := hostTreeWalk[Slot](topo, tree, src, dst, true)
			if code != wcode || at != wat || !slices.Equal(slots, wantSlots) {
				return singles, fmt.Errorf("SlotsInto(%d,%d) = %v, %v at %d; host tree walk %v, %v at %d",
					src, dst, slots, code, at, wantSlots, wcode, wat)
			}
		}
	}
	return singles, nil
}

// TestWalksMatchHostTrees holds every walk to a host equal to the walk over
// the host's own BFS tree through mutateSPT's history, on each snapshot while
// it is current and again once a structure change has superseded it (the
// snapshot still walks its own structure's trees).
func TestWalksMatchHostTrees(t *testing.T) {
	var prev *Topology
	singles, others, superseded := 0, 0, 0
	mutateSPT(400, func(iter int, c *Collector) {
		topo := c.Snapshot()
		n, err := checkWalksMatchHostTrees(topo)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		singles += n
		for j := range topo.HostCount() {
			if i := topo.HostNodeIndex(j); i >= 0 && !singleHomed(topo, i) {
				others++ // adjacent to another host
			}
		}
		if prev != nil && prev.structure != topo.structure {
			if _, err := checkWalksMatchHostTrees(prev); err != nil {
				t.Fatalf("iter %d, superseded snapshot: %v", iter, err)
			}
			superseded++
		}
		prev = topo
	})
	if singles == 0 || others == 0 || superseded == 0 {
		t.Fatalf("history too tame: %d single-homed and %d other hosts walked to, %d superseded snapshots",
			singles, others, superseded)
	}
}

// TestWalksMatchHostTreesCrafted covers what a collector never learns, a
// host has one port there: a host homed on two switches, a host on an
// asymmetric row (its switch does not list it back), and a host whose one
// neighbour is another host.
func TestWalksMatchHostTreesCrafted(t *testing.T) {
	nodes := []string{"a", "b", "m", "p", "q", "s1", "s2", "s3", "x"}
	hosts := map[string]bool{"a": true, "b": true, "m": true, "p": true, "q": true, "x": true}
	rows := map[string][]string{
		"a": {"s1"}, "b": {"s1"}, "m": {"s1", "s2"}, "p": {"q"}, "q": {"p", "s3"},
		"s1": {"a", "b", "m", "s2"}, "s2": {"m", "s1", "s3"}, "s3": {"q", "s2"},
		"x": {"s3"}, // s3 does not list x back
	}
	s := newStructure(nodes, sortedKeys(hosts))
	for i, n := range nodes {
		s.hostFlag.s[i] = hosts[n]
		for _, nb := range rows[n] {
			s.nbrIdx.s[i] = append(s.nbrIdx.s[i], s.nodeIndex[nb])
		}
	}
	s.flatten()
	topo := &Topology{structure: s, slots: indexed[Slot, edgeMetrics]{make([]edgeMetrics, 2*len(s.nbrFlat.s))}}
	singles, err := checkWalksMatchHostTrees(topo)
	if err != nil {
		t.Fatal(err)
	}
	if singles != 3 { // a, b, x
		t.Fatalf("%d single-homed hosts, want 3", singles)
	}
}

// storedTree returns the tree of topo's structure that walks toward dst
// follow, the tree of dst's root (nil until a walk has built it).
func storedTree(topo *Topology, dst string) *destTree {
	return topo.trees.ref(topo.root.s[topo.nodeIndex[dst]]).Load()
}

// TestPathsAcrossLinkEviction: evicting one switch–switch link, with the node
// set unchanged, detours the paths of the new snapshot that crossed it and
// leaves the others as they were, while the superseded snapshot keeps
// answering the paths it had.
func TestPathsAcrossLinkEviction(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 200 * time.Millisecond}) // TTL 1 s
	probe := func(origin, target string, seq uint64, devs ...devSpec) {
		for i := range devs {
			devs[i].egressTS = clk.now
		}
		p := probeFrom(origin, seq, 2*time.Millisecond, devs...)
		p.Target = target
		if target != "" {
			p.LastHopLatency = time.Millisecond
		}
		c.HandleProbe(p)
	}
	// Fabric: hosts b, c, d on switches w1, w2, w3; w2 uplinks to the
	// scheduler; the w1–w3 link is carried ONLY by the b->c stream (every
	// other edge is shared with a surviving stream), so silencing that
	// stream evicts exactly w1<->w3 and leaves the node set unchanged.
	// Ports are consistent per physical link (hosts use port 0).
	feed := func(seq uint64, withS2 bool) {
		probe("b", "", seq,
			devSpec{id: "w1", in: 1, out: 2}, devSpec{id: "w2", in: 1, out: 2})
		probe("d", "", seq,
			devSpec{id: "w3", in: 3, out: 2}, devSpec{id: "w2", in: 3, out: 2})
		probe("c", "", seq, devSpec{id: "w2", in: 4, out: 2})
		if withS2 {
			probe("b", "c", seq,
				devSpec{id: "w1", in: 1, out: 3},
				devSpec{id: "w3", in: 1, out: 2},
				devSpec{id: "w2", in: 3, out: 4})
		}
	}
	wantPath := func(topo *Topology, src, dst string, want ...string) {
		t.Helper()
		if p, err := topo.Path(src, dst); err != nil || !slices.Equal(p, want) {
			t.Fatalf("path %s->%s = %v, %v; want %v", src, dst, p, err, want)
		}
	}
	feed(1, true)
	for s := uint64(2); s <= 4; s++ {
		clk.now += 300 * time.Millisecond
		feed(s, false)
	}
	// The pre-eviction snapshot (t=1.9s; the b->c stream's edges were last
	// confirmed at t=1.0s).
	old := c.Snapshot()
	wantPath(old, "b", "sched", "b", "w1", "w2", "sched")
	wantPath(old, "b", "w3", "b", "w1", "w3")
	wantPath(old, "w1", "w3", "w1", "w3")

	// Eviction: the b->c stream ages out (cutoff passes t=1.0s), every other
	// stream stays fresh, so exactly w1<->w3 is evicted.
	clk.now += 400 * time.Millisecond // 2.3s
	feed(5, false)
	clk.now += 50 * time.Millisecond // 2.35s: cutoff 1.35s
	topo := c.Snapshot()
	if evicted := c.EvictedEdges(); len(evicted) != 2 {
		t.Fatalf("want exactly the w1<->w3 eviction pair, got %v", evicted)
	}
	if !slices.Equal(topo.nodes, old.nodes) || topo.structure == old.structure {
		t.Fatalf("want a new structure over the same nodes: %v, then %v", old.nodes, topo.nodes)
	}
	// The w1–w3 link was on no shortest path toward sched; the paths that
	// crossed it detour through w2.
	wantPath(topo, "b", "sched", "b", "w1", "w2", "sched")
	wantPath(topo, "b", "w3", "b", "w1", "w2", "w3")
	wantPath(topo, "w1", "w3", "w1", "w2", "w3")
	// The superseded snapshot answers from its own structure's trees.
	wantPath(old, "b", "sched", "b", "w1", "w2", "sched")
	wantPath(old, "b", "w3", "b", "w1", "w3")
	wantPath(old, "w1", "w3", "w1", "w3")
}

// TestSnapshotsOfOneStructureShareTrees: probes that only refresh existing
// state (queue reports, delay samples) advance epochs but keep the
// structure, so a tree built on one snapshot serves the next.
func TestSnapshotsOfOneStructureShareTrees(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 1, 5*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: 3}, egressTS: clk.now}))
	t1 := c.Snapshot()
	if _, err := t1.Path("n1", "sched"); err != nil {
		t.Fatal(err)
	}
	clk.now += 50 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 2, 6*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: 9}, egressTS: clk.now}))
	t2 := c.Snapshot()
	if t2 == t1 || t2.Epoch() == t1.Epoch() {
		t.Fatal("epoch should have advanced the snapshot")
	}
	tree := storedTree(t1, "sched")
	if tree == nil {
		t.Fatal("tree not kept on the structure")
	}
	if _, err := t2.Path("n1", "sched"); err != nil {
		t.Fatal(err)
	}
	if storedTree(t2, "sched") != tree {
		t.Fatal("tree rebuilt despite unchanged structure")
	}
}
