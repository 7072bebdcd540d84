package core

import (
	"sync"
	"testing"
)

// TestShapedViewAliasesCachedStorage is the sequential proof behind the
// snapshot-immutability contract (and the snapshotimmutable analyzer):
// Shaped returns a zero-copy prefix view of the entry's backing array, so a
// store through the view corrupts what every other caller — present and
// future — is served. Do not mutate views; CloneCandidates first.
func TestShapedViewAliasesCachedStorage(t *testing.T) {
	e := newRankEntry([]Candidate{
		{Node: "a", Delay: 1, Reachable: true},
		{Node: "b", Delay: 2, Reachable: true},
	}, true)
	v := e.Shaped(false, true, 1)
	if len(v) != 1 || v[0].Node != "a" {
		t.Fatalf("shaped view = %+v, want prefix [a]", v)
	}
	v[0].Delay = 42 // the store the analyzer forbids outside tests
	if got := e.Ranked()[0].Delay; got != 42 {
		t.Fatalf("Shaped no longer aliases the entry storage (Delay=%v); "+
			"the zero-copy contract changed — update the snapshotimmutable analyzer", got)
	}
}

// TestRankForConcurrentWithShapedMutation runs under -race in CI: many
// goroutines take shared Shaped views from RankFor (both orderings, racing
// the sortedByID lazy init) while mutating private clones. This is the
// sanctioned concurrent idiom — it must be data-race free, and none of the
// clone mutations may leak into the shared entry.
func TestRankForConcurrentWithShapedMutation(t *testing.T) {
	f := newServiceFixture(t)
	reqs := []*QueryRequest{
		{From: "dev", Metric: MetricDelay, Sorted: true},
		{From: "dev", Metric: MetricDelay, Sorted: false},
		{From: "dev", Metric: MetricDelay, Sorted: true, Count: 1},
	}
	// Prime the cache so every goroutine shares one entry's storage.
	_ = f.svc.RankFor(reqs[0])

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				view := f.svc.RankFor(reqs[(g+i)%len(reqs)])
				own := CloneCandidates(view)
				for j := range own {
					own[j].Delay = -1
					own[j].Hops = -1
				}
			}
		}()
	}
	wg.Wait()

	for _, req := range reqs {
		for _, c := range f.svc.RankFor(req) {
			if c.Delay < 0 || c.Hops < 0 {
				t.Fatalf("clone mutation leaked into the shared cache entry: %+v", c)
			}
		}
	}
}
