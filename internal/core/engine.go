package core

import (
	"sort"

	"intsched/internal/collector"
	"intsched/internal/netsim"
)

// Engine is the scheduler's query engine, the part of answering a ranking
// query that does not depend on how the query arrived: the rankers by
// metric, the epoch-keyed rank cache, the decision whether a query may be
// cached, the miss computation, and response shaping. The simulated Service
// and the live collector daemon each wrap one Engine with their transport.
//
// Answer is safe for concurrent callers: it reads one immutable topology
// snapshot and the rank cache carries its own lock. Register and the
// configuration fields are setup-time only. The zero value is ready to use.
type Engine struct {
	// ExcludeUnreachable is the fault-recovery policy: drop candidates
	// whose learned-path lookup failed from responses whenever at least
	// one reachable candidate exists, so servers behind evicted links stop
	// receiving tasks as soon as the collector notices the failure. When
	// every candidate is unreachable the full list is returned unchanged —
	// the graceful fallback; stale estimates beat refusing to schedule.
	ExcludeUnreachable bool

	rankers map[Metric]Ranker
	cache   RankCache

	// candidates, when set, overrides candidate selection. The default
	// (nil) is every host in the snapshot except the device itself (the
	// paper: all nodes, scheduler included, execute tasks unless they
	// submitted). Custom functions may close over arbitrary mutable state,
	// so their results bypass the rank cache.
	candidates func(from netsim.NodeID) []netsim.NodeID
	// capable reports whether a server meets a query's Requirements; the
	// owner invalidates the cache when its answers change.
	capable func(server netsim.NodeID, req *Requirements) bool
}

// Register installs a ranker for its metric.
func (e *Engine) Register(r Ranker) {
	if e.rankers == nil {
		e.rankers = make(map[Metric]Ranker)
	}
	e.rankers[r.Metric()] = r
}

// CacheStats reports the rank cache counters.
func (e *Engine) CacheStats() RankCacheStats { return e.cache.Stats() }

// Answer ranks the candidates for one query on one snapshot and shapes the
// result per the request (ID order, recovery filter, count). ok is false
// when no ranker is registered for the query's metric. Repeated queries
// between telemetry updates are served from the rank cache; the result is a
// read-only view of shared storage — a warmed hit performs zero heap
// allocations — so callers that mutate it must CloneCandidates first.
func (e *Engine) Answer(topo *collector.Topology, req *QueryRequest) (ranked []Candidate, ok bool) {
	ranker := e.rankers[req.Metric]
	if ranker == nil {
		return nil, false
	}
	// Option two from the paper: estimates in ID order, so the device can
	// run its own selection.
	idOrder := !req.Sorted && req.Metric != MetricRandom
	fromHost := topo.HostIndex(string(req.From))
	if e.candidates != nil || fromHost < 0 || !RankerCacheable(ranker) {
		// Inputs the collector epoch does not version (or a requester the
		// index-space key cannot name): compute every time.
		entry := newRankEntry(e.compute(topo, ranker, req, fromHost))
		return entry.Shaped(idOrder, e.ExcludeUnreachable, req.Count), true
	}
	// The cache stores the full ranked list; the per-request shaping is a
	// reslice of the entry's storage.
	key := RankKey{From: int32(fromHost), Metric: req.Metric, DataBytes: req.DataBytes, Reqs: ReqKey(req.Requirements)}
	entry, miss := e.cache.Lookup(topo.Epoch(), key)
	if entry == nil {
		entry = miss.Store(e.compute(topo, ranker, req, fromHost))
	}
	return entry.Shaped(idOrder, e.ExcludeUnreachable, req.Count), true
}

// compute runs one ranking computation in pooled scratch and returns a
// private slice. fromHost is the requester's host index (-1 for none).
func (e *Engine) compute(topo *collector.Topology, ranker Ranker, req *QueryRequest, fromHost int) []Candidate {
	meets := func(server netsim.NodeID) bool {
		return req.Requirements == nil || e.capable(server, req.Requirements)
	}
	sc := scratchPool.Get().(*rankScratch)
	cands := sc.cands[:0]
	// unknown collects custom candidates that are not hosts of this
	// snapshot: they have no host index to rank by.
	var unknown []netsim.NodeID
	if e.candidates == nil {
		all := hostCandidatesIdx(topo, fromHost, sc.cands)
		cands = all[:0] // filtered in place
		for _, j := range all {
			if meets(netsim.NodeID(topo.HostName(int(j)))) {
				cands = append(cands, j)
			}
		}
	} else {
		for _, id := range e.candidates(req.From) {
			if !meets(id) {
				continue
			}
			if j := topo.HostIndex(string(id)); j >= 0 {
				cands = append(cands, int32(j))
			} else {
				unknown = append(unknown, id)
			}
		}
	}
	sc.cands = cands
	ranked := rankPrivate(topo, ranker, req.From, cands, req.DataBytes, sc)
	scratchPool.Put(sc)
	if len(unknown) > 0 {
		// Unreachable, in ID order among the unreachable tail.
		for _, id := range unknown {
			ranked = append(ranked, Candidate{Node: id})
		}
		first := 0
		for ranked[first].Reachable {
			first++
		}
		tail := ranked[first:]
		sort.Slice(tail, func(i, j int) bool { return tail[i].Node < tail[j].Node })
	}
	return ranked
}
