package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"intsched/internal/netsim"
	"intsched/internal/simtime"
)

// A counted query — sorted, Count k — is answered from the k least keys
// alone. These tests hold every such answer equal to the prefix of the whole
// ranking, and pin down when a shorter cached entry serves a request.

// TestRankedSelectsTheSortedPrefix: for key sets full of ties, ranked cut to
// count is the prefix of the whole order, and the whole order is the keys
// sorted by (key, host) followed by the unreachable hosts in ID order.
// Uncongested bandwidth keys are all equal, so there the host tie-break
// alone decides; the reference spells the tie-break out itself, so a
// comparison that dropped it fails here.
func TestRankedSelectsTheSortedPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	byKeyThenHost := func(a, b rankKey) int {
		return cmp.Or(cmp.Compare(a.key, b.key), cmp.Compare(a.host, b.host))
	}
	for _, n := range []int{0, 1, 2, 13, 255} {
		for _, count := range []int{1, 2, n - 1, n, n + 1} {
			for trial := 0; trial < 30; trial++ {
				// n reachable hosts, two unreachable ones and the requester,
				// whose stale scratch entry must not leak into the answer.
				hosts := n + 3
				perm := rng.Perm(hosts)
				fromHost, unreachable := perm[0], perm[1:3]
				cands := make([]Candidate, hosts)
				var keys []rankKey
				for j := range cands {
					cands[j] = Candidate{Node: netsim.NodeID(fmt.Sprintf("h%03d", j)), Delay: time.Duration(j)}
					if j == fromHost || slices.Contains(unreachable, j) {
						continue
					}
					cands[j].Reachable = true
					var key int64
					switch trial % 3 {
					case 0: // every path uncongested
						key = floatKey(-20e6)
					case 1:
						key = int64(rng.Intn(3))
					default:
						key = rng.Int63()
					}
					keys = append(keys, rankKey{key: key, host: int32(j)})
				}
				cands[fromHost] = Candidate{Node: "requester", Reachable: true}
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

				sorted := slices.Clone(keys)
				slices.SortFunc(sorted, byKeyThenHost)
				var want []Candidate
				for _, k := range sorted {
					want = append(want, cands[k.host])
				}
				if 0 < count && count < n {
					want = want[:count]
				} else {
					for j := range cands {
						if j != fromHost && !cands[j].Reachable {
							want = append(want, cands[j])
						}
					}
				}
				if 0 < count && count < n {
					// However few partitions the selection may run before it
					// sorts what is left, it selects the same keys.
					for rounds := 0; rounds < 3; rounds++ {
						sel := slices.Clone(keys)
						selectLeast(sel, count, rounds)
						slices.SortFunc(sel[:count], byKeyThenHost)
						if !slices.Equal(sel[:count], sorted[:count]) {
							t.Fatalf("n=%d count=%d trial %d, %d rounds: selected %v, want %v", n, count, trial, rounds, sel[:count], sorted[:count])
						}
					}
				}
				got := ranked(cands, keys, fromHost, count)
				if err := sameRanking(got, want); err != nil {
					t.Fatalf("n=%d count=%d trial %d: %v\n got  %v\n want %v", n, count, trial, err, got, want)
				}
			}
		}
	}
}

// shapeWhole is the response shaping of a whole best-first ranking, spelled
// out: ID order groups the reachable prefix first, the recovery filter keeps
// that prefix unless it is empty, and a positive count truncates.
func shapeWhole(whole []Candidate, sorted, excludeUnreachable bool, count int) []Candidate {
	list := slices.Clone(whole)
	reach := 0
	for reach < len(list) && list[reach].Reachable {
		reach++
	}
	if !sorted {
		byNode := func(a, b Candidate) int { return cmp.Compare(a.Node, b.Node) }
		slices.SortFunc(list[:reach], byNode)
		slices.SortFunc(list[reach:], byNode)
	}
	if excludeUnreachable && reach > 0 {
		list = list[:reach]
	}
	if count > 0 && count < len(list) {
		list = list[:count]
	}
	return list
}

// TestEngineCountedAnswersMatchWholeRanking: on a learned snapshot with an
// aged-out host (fewer reachable candidates than hosts), every answer the
// engine gives — from every host, for each cacheable metric, for counts
// below, at and above the reachable count, in both orders, with and without
// the recovery filter — is the whole ComputeRanking shaped as the request
// asks. Each request is answered on a cold engine, and again on one engine
// per policy whose cache the earlier requests filled, so every entry length
// meets every request.
func TestEngineCountedAnswersMatchWholeRanking(t *testing.T) {
	topo := learnedTopo(t, 10, 3)
	nw := netsim.New(simtime.NewEngine())
	for _, sw := range []netsim.NodeID{"s1", "s2", "s3"} {
		nw.AddSwitch(sw)
	}
	for _, h := range []netsim.NodeID{"dev", "e1", "e2", "sched"} {
		nw.AddHost(h)
	}
	cfg := netsim.LinkConfig{RateBps: 20_000_000, Delay: 10 * time.Millisecond}
	for _, l := range [][2]netsim.NodeID{{"dev", "s1"}, {"sched", "s1"}, {"s1", "s2"}, {"s2", "e1"}, {"s1", "s3"}, {"s3", "e2"}} {
		if _, err := nw.Connect(l[0], l[1], cfg); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		t.Fatal(err)
	}
	// ghost has no static route either: it is unreachable to every ranker.
	nearest, err := NewNearestRanker(nw, []netsim.NodeID{"dev", "e1", "e2", "sched"})
	if err != nil {
		t.Fatal(err)
	}
	rankers := []Ranker{&DelayRanker{}, &BandwidthRanker{}, &TransferTimeRanker{}, nearest}
	newEngine := func(exclude bool) *Engine {
		e := &Engine{ExcludeUnreachable: exclude}
		for _, r := range rankers {
			e.Register(r)
		}
		return e
	}
	warm := map[bool]*Engine{false: newEngine(false), true: newEngine(true)}
	partial := 0
	for _, from := range topo.Hosts() {
		for _, r := range rankers {
			dataBytes := int64(0)
			if r.Metric() == MetricTransferTime {
				dataBytes = 1 << 20
			}
			whole := ComputeRanking(topo, r, netsim.NodeID(from), dataBytes)
			reach := 0
			for reach < len(whole) && whole[reach].Reachable {
				reach++
			}
			if len(whole) != len(topo.Hosts())-1 || (from != "ghost" && reach != len(whole)-1) {
				t.Fatalf("%v from %s: %d candidates, %d reachable: the fixture lost its aged-out host", r.Metric(), from, len(whole), reach)
			}
			for _, count := range []int{1, 8, reach - 1, reach, reach + 1, 0} {
				if 0 < count && count < reach {
					partial++
				}
				for _, sorted := range []bool{true, false} {
					for _, exclude := range []bool{false, true} {
						req := &QueryRequest{From: netsim.NodeID(from), Metric: r.Metric(), Count: count, Sorted: sorted, DataBytes: dataBytes}
						want := shapeWhole(whole, sorted, exclude, count)
						for name, e := range map[string]*Engine{"cold": newEngine(exclude), "warm": warm[exclude]} {
							got, ok := e.Answer(nil, topo, req)
							if !ok {
								t.Fatalf("%v not served", r.Metric())
							}
							if err := sameRanking(got, want); err != nil {
								t.Fatalf("%s engine, %+v, exclude=%v: %v\n got  %v\n want %v", name, *req, exclude, err, got, want)
							}
						}
					}
				}
			}
		}
	}
	if partial == 0 {
		t.Fatal("no count left out a reachable candidate: the selection was never exercised")
	}
}

// TestRankCacheCountedEntries: a counted miss stores only the candidates it
// computed, which serve any shorter best-first request; a request for more,
// for every candidate or for ID order misses and replaces the entry.
func TestRankCacheCountedEntries(t *testing.T) {
	var names []string
	for i := 0; i < 12; i++ {
		names = append(names, fmt.Sprintf("h%02d", i))
	}
	topo := hostsTopo(names...)
	all := len(topo.Hosts()) - 1 // the whole ranking's length
	var e Engine
	e.Register(&DelayRanker{})
	type step struct {
		count       int
		sorted, hit bool
		stored      int // the entry's length afterwards
	}
	for from, steps := range map[string][]step{
		"h00": {
			{count: 8, sorted: true, stored: 8},
			{count: 0, sorted: true, stored: all},
			{count: 8, sorted: true, hit: true, stored: all},
		},
		"h05": {
			{count: 8, sorted: true, stored: 8},
			{count: 3, sorted: true, hit: true, stored: 8},
			{count: 9, sorted: true, stored: 9},
			{count: 8, sorted: false, stored: all},
			{count: 9, sorted: true, hit: true, stored: all},
		},
	} {
		whole := ComputeRanking(topo, &DelayRanker{}, netsim.NodeID(from), 0)
		key := cacheKey{from: int32(topo.HostIndex(from)), metric: MetricDelay}
		before := e.CacheStats()
		for i, s := range steps {
			got, _ := e.Answer(nil, topo, &QueryRequest{From: netsim.NodeID(from), Metric: MetricDelay, Count: s.count, Sorted: s.sorted})
			if err := sameRanking(got, shapeWhole(whole, s.sorted, false, s.count)); err != nil {
				t.Fatalf("from %s step %d %+v: %v", from, i, s, err)
			}
			st := e.CacheStats()
			hits, misses := st.Hits-before.Hits, st.Misses-before.Misses
			if hit := hits == 1; hit != s.hit || hits+misses != 1 {
				t.Fatalf("from %s step %d %+v: %d hits and %d misses", from, i, s, hits, misses)
			}
			before = st
			if n := len(e.cache.entries[key].ranked); n != s.stored {
				t.Fatalf("from %s step %d %+v: entry holds %d candidates, want %d", from, i, s, n, s.stored)
			}
		}
	}
	if st := e.CacheStats(); st.Invalidations != 0 {
		t.Fatalf("stats %+v: the epoch moved under the test", st)
	}
}
