package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/telemetry"
)

// TestRankingOnSupersededSnapshot runs under -race in CI. A destination
// tree's hop slots belong to one structure's layout, and each structure owns
// its trees. Goroutines rank on the current snapshot — building and reading
// its trees — while a link appears between two switches already known, the
// next snapshot is published, and its first rankings build the new
// structure's trees. The rankings on the snapshot being superseded must stay
// what they were before the change: trees shared across structures would
// hand its readers another layout's slots (and race).
func TestRankingOnSupersededSnapshot(t *testing.T) {
	now := time.Second
	coll := collector.New("sched", func() time.Duration { return now },
		collector.Config{AdjacencyTTL: collector.NoAdjacencyAging})
	seq := map[[2]string]uint64{}
	// probe learns origin -> (switch, in, out)... -> target, with a queue
	// report on every switch so that slots differ in what they hold.
	type hop struct {
		dev     string
		in, out int
	}
	probe := func(origin, target string, hops ...hop) {
		key := [2]string{origin, target}
		seq[key]++
		p := &telemetry.ProbePayload{Origin: origin, Target: target, Seq: seq[key], LastHopLatency: time.Millisecond}
		for i, h := range hops {
			p.Stack.Append(telemetry.Record{
				Device: h.dev, IngressPort: h.in, EgressPort: h.out,
				LinkLatency: time.Duration(1+len(h.dev)+i+h.in) * time.Millisecond,
				EgressTS:    now - time.Millisecond,
				Queues:      []telemetry.PortQueue{{Port: h.out, MaxQueue: 1 + h.in + 3*i, Packets: 1}},
			})
		}
		coll.HandleProbe(p)
	}
	// Hub w0 holds sched (port 0) and host c (port 9); leaf switch wN holds
	// host hN on port 1 and reaches the hub through its port 2 (hub port N).
	leaves := []string{"w1", "w2", "w3", "w4", "w5"}
	hosts := []string{"h1", "h2", "h3", "h4", "h5"}
	for i, leaf := range leaves {
		probe(hosts[i], "", hop{leaf, 1, 2}, hop{"w0", i + 1, 0})
	}
	probe("c", "", hop{"w0", 9, 0})

	rankers := []Ranker{&DelayRanker{}, &BandwidthRanker{}}
	type query struct {
		r    Ranker
		from netsim.NodeID
	}
	rankAll := func(topo *collector.Topology) map[query][]Candidate {
		out := map[query][]Candidate{}
		for _, r := range rankers {
			for _, from := range topo.Hosts() {
				q := query{r, netsim.NodeID(from)}
				out[q] = ComputeRanking(topo, r, q.from, 0)
			}
		}
		return out
	}
	// One round: readers rank on topo, the current snapshot, expecting want,
	// while the test changes the adjacency under them.
	type round struct {
		topo *collector.Topology
		want map[query][]Candidate
		seen chan struct{} // a token from each reader once it has ranked on topo
	}
	// verified ranks on a freshly published snapshot — the first walk toward
	// each host catches the previous structure's tree up, or rebuilds it —
	// and checks the result by name.
	verified := func(topo *collector.Topology, when string) map[query][]Candidate {
		got := rankAll(topo)
		for q, ranked := range got {
			if err := sameRanking(ranked, refRanking(topo, q.r.Metric(), q.from, 0)); err != nil {
				t.Fatalf("%s, %v from %s: %v", when, q.r.Metric(), q.from, err)
			}
		}
		return got
	}
	const readers = 4
	snap := coll.Snapshot()
	first := &round{topo: snap, want: verified(snap, "before any change"), seen: make(chan struct{}, readers)}
	var cur atomic.Pointer[round]
	cur.Store(first)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last *round
			failed := false
			for r := cur.Load(); r != nil; r = cur.Load() {
				for q, ranked := range r.want {
					if err := sameRanking(ComputeRanking(r.topo, q.r, q.from, 0), ranked); err != nil && !failed {
						failed = true
						t.Errorf("snapshot being superseded, %v from %s: %v", q.r.Metric(), q.from, err)
					}
				}
				if r != last {
					last = r
					r.seen <- struct{}{}
				}
			}
		}()
	}

	// Each round links two leaves directly (ports 3 and up), which moves
	// every later CSR edge and so most slots. The next hops toward sched and
	// c cannot change — no leaf gets closer to the hub — those toward the
	// two leaves' hosts do, and the new structure builds all of its trees.
	next, port := first, 3
	for i := 0; i+1 < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			cur.Store(next)
			for g := 0; g < readers; g++ {
				<-next.seen
			}
			probe(hosts[i], hosts[j], hop{leaves[i], 1, port}, hop{leaves[j], port, 1})
			port++
			if snap = coll.Snapshot(); snap == next.topo {
				t.Fatal("a new link did not publish a new snapshot")
			}
			next = &round{topo: snap, want: verified(snap, "after linking "+leaves[i]+"-"+leaves[j]), seen: make(chan struct{}, readers)}
		}
	}
	cur.Store(nil)
	wg.Wait()
	if got := coll.Stats().StructureRebuilds; got != uint64(port-2) {
		t.Fatalf("%d structure rebuilds, want one per adjacency change and the first: %d", got, port-2)
	}
	// And by name, on the snapshot everyone has long moved past.
	for q, ranked := range first.want {
		if err := sameRanking(ranked, refRanking(first.topo, q.r.Metric(), q.from, 0)); err != nil {
			t.Fatalf("first snapshot at the end, %v from %s: %v", q.r.Metric(), q.from, err)
		}
	}
}
