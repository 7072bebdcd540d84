package collector

import (
	"testing"
	"time"
)

// buildDiamond teaches a collector the diamond n1 - s1 - {s2,s3} - s4 - sched
// via two probes taking each branch.
func buildDiamond(t *testing.T) (*Collector, *fakeClock) {
	t.Helper()
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	c.HandleProbe(probeFrom("n1", 1, 10*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: 2, 2: 8}, egressTS: clk.now},
		devSpec{id: "s2", in: 0, out: 1, egressTS: clk.now},
		devSpec{id: "s4", in: 0, out: 2, egressTS: clk.now},
	))
	clk.now += 10 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 2, 10*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 2, queues: map[int]int{1: 2, 2: 8}, egressTS: clk.now},
		devSpec{id: "s3", in: 0, out: 1, egressTS: clk.now},
		devSpec{id: "s4", in: 1, out: 2, egressTS: clk.now},
	))
	return c, clk
}

func TestPathDeterministicTieBreak(t *testing.T) {
	c, _ := buildDiamond(t)
	topo := c.Snapshot()
	path, err := topo.Path("n1", "sched")
	if err != nil {
		t.Fatal(err)
	}
	// Two equal-length paths exist (via s2 or s3); lexicographic
	// tie-breaking must pick s2, matching netsim's routing rule.
	want := []string{"n1", "s1", "s2", "s4", "sched"}
	if len(path) != len(want) {
		t.Fatalf("path %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
	if hops, _ := topo.HopCount("n1", "sched"); hops != 4 {
		t.Fatalf("hops %d", hops)
	}
}

func TestPathTrivialAndErrors(t *testing.T) {
	c, _ := buildDiamond(t)
	topo := c.Snapshot()
	p, err := topo.Path("s1", "s1")
	if err != nil || len(p) != 1 {
		t.Fatalf("self path %v %v", p, err)
	}
	if _, err := topo.Path("ghost", "sched"); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := topo.Path("n1", "ghost"); err == nil {
		t.Fatal("unknown destination accepted")
	}
}

func TestHostsDoNotForwardInLearnedTopology(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := newTestCollector(clk)
	// n1 -> s1 -> sched and n2 -> s1 -> sched: path n1->n2 must go via s1,
	// never through sched (a host).
	c.HandleProbe(probeFrom("n1", 1, time.Millisecond, devSpec{id: "s1", in: 0, out: 2, egressTS: clk.now}))
	c.HandleProbe(probeFrom("n2", 1, time.Millisecond, devSpec{id: "s1", in: 1, out: 2, egressTS: clk.now}))
	topo := c.Snapshot()
	path, err := topo.Path("n1", "n2")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range path[1 : len(path)-1] {
		if topo.IsHost(n) {
			t.Fatalf("path %v transits host %s", path, n)
		}
	}
}

// craftedTopology builds a Topology directly (same package) with an
// injected shortest-path tree, to exercise Path's defensive branches that a
// well-formed BFS can never produce but a corrupted or hand-fed tree could.
// nodes must be sorted (index order is name order in real snapshots).
func craftedTopology(nodes []string, hosts map[string]bool, neighbors map[string][]string, dst string, tree map[string]string) *Topology {
	s := newStructure(nodes, sortedKeys(hosts))
	for i, n := range nodes {
		s.hostFlag.s[i] = hosts[n]
		for _, nb := range neighbors[n] {
			s.nbrIdx.s[i] = append(s.nbrIdx.s[i], s.nodeIndex[nb])
		}
	}
	s.flatten()
	t := &Topology{structure: s, slots: indexed[Slot, edgeMetrics]{make([]edgeMetrics, 2*len(s.nbrFlat.s))}}
	next := make([]NodeIdx, len(nodes))
	for i := range next {
		next[i] = -1
	}
	for n, parent := range tree {
		next[t.nodeIndex[n]] = t.nodeIndex[parent]
	}
	t.trees.ref(t.nodeIndex[dst]).Store(&destTree{next: indexed[NodeIdx, NodeIdx]{next}, slot: hopSlots(s, next)})
	return t
}

// TestPathHostTransitDefensive: a tree that routes through a host mid-path
// must yield an error, not a path that pretends hosts forward transit
// traffic (and not an infinite walk).
func TestPathHostTransitDefensive(t *testing.T) {
	topo := craftedTopology(
		[]string{"a", "h", "z"},
		map[string]bool{"h": true},
		map[string][]string{"a": {"h"}, "h": {"a", "z"}, "z": {"h"}},
		"z",
		map[string]string{"a": "h", "h": "z"},
	)
	if _, err := topo.Path("a", "z"); err == nil {
		t.Fatal("host-transit path accepted")
	}
	// src itself being a host is fine — hosts originate traffic.
	topoOK := craftedTopology(
		[]string{"h", "s", "z"},
		map[string]bool{"h": true},
		map[string][]string{"h": {"s"}, "s": {"h", "z"}, "z": {"s"}},
		"z",
		map[string]string{"h": "s", "s": "z"},
	)
	p, err := topoOK.Path("h", "z")
	if err != nil || len(p) != 3 {
		t.Fatalf("host source rejected: %v %v", p, err)
	}
}

// TestPathBrokenTreeDefensive: a tree whose chain dead-ends at a node with
// no next hop must error instead of walking into the zero value forever.
func TestPathBrokenTreeDefensive(t *testing.T) {
	topo := craftedTopology(
		[]string{"a", "b", "z"},
		map[string]bool{},
		map[string][]string{"a": {"b"}, "b": {"a"}, "z": nil},
		"z",
		map[string]string{"a": "b"}, // b has no entry: chain breaks
	)
	if _, err := topo.Path("a", "z"); err == nil {
		t.Fatal("broken tree walk accepted")
	}
}

// TestPathLoopDefensive: a cyclic tree (impossible from BFS, possible from
// corruption) must hit the loop guard.
func TestPathLoopDefensive(t *testing.T) {
	topo := craftedTopology(
		[]string{"a", "b", "z"},
		map[string]bool{},
		map[string][]string{"a": {"b"}, "b": {"a"}, "z": nil},
		"z",
		map[string]string{"a": "b", "b": "a"},
	)
	if _, err := topo.Path("a", "z"); err == nil {
		t.Fatal("cyclic tree walk accepted")
	}
}

// TestPathUnknownHostSource: a node known only as a host (marked via
// isHost but absent from the adjacency) is still an unknown source for
// path purposes.
func TestPathUnknownHostSource(t *testing.T) {
	topo := craftedTopology(
		[]string{"z"},
		map[string]bool{"x": true},
		map[string][]string{"z": nil},
		"z",
		map[string]string{},
	)
	if _, err := topo.Path("x", "z"); err == nil {
		t.Fatal("adjacency-less host accepted as source")
	}
}

// TestPathMemoizedTreeShared: repeated Path calls toward one destination
// reuse the memoized tree (one BFS serves all sources), and that tree is the
// one of s4, the switch sched hangs off: no tree toward sched itself.
func TestPathMemoizedTreeShared(t *testing.T) {
	c, _ := buildDiamond(t)
	topo := c.Snapshot()
	if _, err := topo.Path("n1", "sched"); err != nil {
		t.Fatal(err)
	}
	tree1 := storedTree(topo, "sched")
	if tree1 == nil {
		t.Fatal("tree not memoized")
	}
	if _, err := topo.Path("s2", "sched"); err != nil {
		t.Fatal(err)
	}
	if storedTree(topo, "sched") != tree1 {
		t.Fatal("second source rebuilt the destination's tree")
	}
	nTrees := 0
	for i := range topo.trees.s {
		if topo.trees.s[i].Load() != nil {
			nTrees++
		}
	}
	s4 := topo.trees.ref(topo.nodeIndex["s4"]).Load()
	if nTrees != 1 || s4 != tree1 {
		t.Fatalf("expected a single memoized destination, s4, got %d trees", nTrees)
	}
}

func TestQueueMaxPerDirection(t *testing.T) {
	c, _ := buildDiamond(t)
	topo := c.Snapshot()
	// s1's egress toward s2 is port 1 (queue 2); toward s3 is port 2
	// (queue 8).
	if q, ok := topo.QueueMax("s1", "s2"); !ok || q != 2 {
		t.Fatalf("s1->s2 queue %d,%v", q, ok)
	}
	if q, ok := topo.QueueMax("s1", "s3"); !ok || q != 8 {
		t.Fatalf("s1->s3 queue %d,%v", q, ok)
	}
	// Unreported port: s2 egress toward s1 has no queue report (s2
	// reported no queues at all).
	if _, ok := topo.QueueMax("s2", "s1"); ok {
		t.Fatal("unreported queue visible")
	}
	// Unknown edge.
	if _, ok := topo.QueueMax("s2", "ghost"); ok {
		t.Fatal("unknown edge visible")
	}
}

func TestSnapshotIsConsistentView(t *testing.T) {
	c, clk := buildDiamond(t)
	topo := c.Snapshot()
	before, _ := topo.LinkDelay("n1", "s1")
	// Mutate the collector afterwards; the snapshot must not change.
	clk.now += 10 * time.Millisecond
	c.HandleProbe(probeFrom("n1", 3, 50*time.Millisecond,
		devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: 60}, egressTS: clk.now}))
	after, _ := topo.LinkDelay("n1", "s1")
	if before != after {
		t.Fatal("snapshot mutated by later probe")
	}
	if q, _ := topo.QueueMax("s1", "s2"); q == 60 {
		t.Fatal("snapshot sees post-snapshot queue report")
	}
}

func TestTopologyAccessors(t *testing.T) {
	c, _ := buildDiamond(t)
	topo := c.Snapshot()
	if len(topo.nodes) == 0 || topo.TakenAt() == 0 {
		t.Fatal("snapshot metadata empty")
	}
	hosts := topo.Hosts()
	if len(hosts) != 2 || hosts[0] != "n1" || hosts[1] != "sched" {
		t.Fatalf("hosts %v", hosts)
	}
	// s1 reaches s2 through port 1 and s3 through port 2: each link reads
	// the queue of its own egress port.
	if q, ok := topo.QueueMax("s1", "s2"); !ok || q != 2 {
		t.Fatalf("queue behind s1->s2 = %d,%v", q, ok)
	}
	if q, ok := topo.QueueMax("s1", "s3"); !ok || q != 8 {
		t.Fatalf("queue behind s1->s3 = %d,%v", q, ok)
	}
	if _, ok := topo.QueueMax("s1", "ghost"); ok {
		t.Fatal("phantom queue report")
	}
	if _, ok := topo.LinkDelay("ghost", "s1"); ok {
		t.Fatal("phantom link delay")
	}
}
