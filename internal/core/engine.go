package core

import "intsched/internal/collector"

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
	cache   rankCache
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

// Answer ranks the candidates for one query — every host of the snapshot
// except the requester (the paper: all nodes, scheduler included, execute
// tasks unless they submitted) — shapes the result per the request (ID
// order, recovery filter, count; a count ≤ 0, which the simulator's devices
// send, means every candidate), and appends it to dst, which the caller
// owns, in the idiom of strconv.AppendInt. ok is false when no ranker is
// registered for the query's metric, and dst is returned unchanged. Repeated
// queries between telemetry updates are served from the rank cache; what is
// appended is a copy, so a warmed hit into a buffer with room performs zero
// heap allocations and the caller may do anything with the result.
func (e *Engine) Answer(dst []Candidate, topo *collector.Topology, req *QueryRequest) (ranked []Candidate, ok bool) {
	ranker := e.rankers[req.Metric]
	if ranker == nil {
		return dst, false
	}
	// Option two from the paper: estimates in ID order, so the device can
	// run its own selection.
	idOrder := !req.Sorted && req.Metric != MetricRandom
	fromHost := topo.HostIndex(string(req.From))
	if req.Metric == MetricRandom || fromHost < 0 {
		// An RNG draw the collector epoch does not version, or a requester
		// the index-space key cannot name: compute every time. The ranking is
		// private, so with no buffer to append to it is shaped in place.
		ranked := ComputeRanking(topo, ranker, req.From, req.DataBytes)
		if cap(dst) == 0 {
			dst = ranked[:0]
		}
		return newRankEntry(ranked, true).appendShaped(dst, idOrder, e.ExcludeUnreachable, req.Count), true
	}
	// A sorted, counted query needs only the count best, and the miss
	// computes only those; anything else needs the whole ranking. The cache
	// holds what the last miss computed.
	need := max(req.Count, 0)
	if idOrder {
		need = 0
	}
	key := cacheKey{from: int32(fromHost), metric: req.Metric, dataBytes: req.DataBytes}
	entry, miss := e.cache.lookup(topo.Epoch(), key, need)
	if entry == nil {
		ranked := rank(topo, ranker, req.From, fromHost, req.DataBytes, need)
		// Every host but the requester, or the first need of them.
		entry = miss.store(ranked, len(ranked) == topo.HostCount()-1)
	}
	return entry.appendShaped(dst, idOrder, e.ExcludeUnreachable, req.Count), true
}
