package core

import (
	"cmp"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"intsched/internal/netsim"
)

// TestAnswersAreCallerOwned: an answer is the caller's own slice. Storing
// into it, appending to it and sorting it in place change nothing that a
// later query of the same epoch is served — for option one, option two and
// a counted query, through Service.RankFor and through Engine.Answer.
func TestAnswersAreCallerOwned(t *testing.T) {
	// Access links that all differ in delay make the best-first order (e4
	// e3 e2 e1 sched from dev), the ID order and a counted prefix three
	// different lists.
	hosts := []netsim.NodeID{"dev", "e1", "e2", "e3", "e4", "sched"}
	delays := []time.Duration{1, 4, 3, 2, 1, 5}
	reqs := []*QueryRequest{
		{From: "dev", Metric: MetricDelay, Sorted: true},
		{From: "dev", Metric: MetricDelay, Sorted: false},
		{From: "dev", Metric: MetricDelay, Sorted: true, Count: 3},
	}
	mutations := map[string]func([]Candidate){
		"store": func(got []Candidate) {
			got[0].Node, got[0].Delay, got[0].Reachable = "mutated", -1, false
		},
		"append": func(got []Candidate) {
			for range 8 {
				got = append(got, Candidate{Node: "appended", Delay: -1})
			}
			if got[len(got)-1].Node != "appended" {
				t.Fatal("the appended candidate is missing")
			}
		},
		"sort": func(got []Candidate) {
			slices.SortFunc(got, func(a, b Candidate) int { return cmp.Compare(b.Delay, a.Delay) })
		},
	}
	for _, via := range []string{"RankFor", "Engine.Answer"} {
		for name, mutate := range mutations {
			for i, req := range reqs {
				f := newStarFixture(t, hosts, delays)
				topo := f.coll.Snapshot()
				answer := func(req *QueryRequest) []Candidate {
					if via == "RankFor" {
						return f.svc.RankFor(req)
					}
					got, ok := f.svc.engine.Answer(nil, topo, req)
					if !ok {
						t.Fatalf("%v not served", req.Metric)
					}
					return got
				}
				want := make([][]Candidate, len(reqs))
				for j, r := range reqs {
					want[j] = slices.Clone(answer(r))
				}
				if len(want[2]) != 3 || reflect.DeepEqual(want[0][:3], want[1][:3]) ||
					!reflect.DeepEqual(want[0][:3], want[2]) || want[0][0].Node != "e4" {
					t.Fatalf("fixture answers %v, %v, %v: want best-first, ID order and a counted prefix to differ", want[0], want[1], want[2])
				}
				got := answer(req)
				mutate(got)
				for j, r := range reqs {
					if again := answer(r); !reflect.DeepEqual(again, want[j]) {
						t.Fatalf("via %s, %s on answer %d: answer %d became %v, want %v", via, name, i, j, again, want[j])
					}
				}
				if f.coll.Snapshot() != topo {
					t.Fatal("the epoch moved under the test")
				}
				if st := f.svc.CacheStats(); st.Hits == 0 {
					t.Fatalf("stats %+v: no answer came from the cache", st)
				}
			}
		}
	}
}

// TestRankForConcurrentWithShapedMutation runs under -race in CI: many
// goroutines take answers of one cache entry from RankFor — best-first,
// option two and counted — and mutate each in place. Every answer is the
// caller's own copy, so this must be data-race free, and no mutation may
// reach the entry.
func TestRankForConcurrentWithShapedMutation(t *testing.T) {
	f := newServiceFixture(t)
	reqs := []*QueryRequest{
		{From: "dev", Metric: MetricDelay, Sorted: true},
		{From: "dev", Metric: MetricDelay, Sorted: false},
		{From: "dev", Metric: MetricDelay, Sorted: true, Count: 1},
	}
	// Prime the cache so every goroutine is served from one entry.
	_ = f.svc.RankFor(reqs[0])

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				got := f.svc.RankFor(reqs[(g+i)%len(reqs)])
				for j := range got {
					got[j].Delay = -1
					got[j].Hops = -1
				}
				slices.Reverse(got)
			}
		}()
	}
	wg.Wait()

	for _, req := range reqs {
		for _, c := range f.svc.RankFor(req) {
			if c.Delay < 0 || c.Hops < 0 {
				t.Fatalf("an answer's mutation reached the cache entry: %+v", c)
			}
		}
	}
}
