package core

import (
	"cmp"
	"slices"
	"sync"
)

// This file implements the rank-result cache of the query Engine. Between
// telemetry updates — the common case at high query rates, since probes
// arrive every 100 ms — the learned topology is frozen at one collector
// epoch, so a ranking computed for (from, metric, dataBytes) is valid for
// every identical query until the epoch advances. Invalidation is by epoch
// comparison only; no timers. Every ranker but RandomRanker, which draws
// from an RNG stream, is a pure function of the snapshot and the query, so
// the engine caches every metric but random.
//
// The cache is core's own: an entry holds a best-first ranking with its
// reachable prefix length, never leaves the package, and is never written
// after it is stored. Every answer is appended from it into a slice the
// caller owns — unreachable filtering and count truncation pick a prefix to
// copy, and the ID order of option two sorts the copy. An entry holds either
// the whole ranking or, when the query that computed it asked for the k best
// of more reachable candidates, just those k: a prefix of the whole ranking
// that serves any best-first request for at most k. A request the entry is
// too short for is a miss, and its store replaces the entry.

// cacheKey identifies one cacheable ranking computation within an epoch:
// three scalars, no strings hashed on the hot path.
type cacheKey struct {
	// from is the querying device's position in the snapshot's sorted host
	// list. Host indices are stable within an epoch (and the cache is
	// epoch-keyed), so the index identifies the device exactly; queries
	// from non-host devices bypass the cache.
	from      int32
	metric    Metric
	dataBytes int64
}

// rankEntry is one ranking: a best-first candidate list and the length of
// its reachable prefix. It is not modified after it is built.
type rankEntry struct {
	// ranked is the best-first list. Every ranker emits reachable
	// candidates before unreachable ones (Ranker.Rank), or marks every
	// candidate reachable; reach is the length of that reachable prefix.
	ranked []Candidate
	reach  int
	// whole is false when ranked is only the first len(ranked) candidates
	// of the ranking, all reachable: a counted computation's result.
	whole bool
}

func newRankEntry(ranked []Candidate, whole bool) *rankEntry {
	e := &rankEntry{ranked: ranked, whole: whole}
	for e.reach < len(ranked) && ranked[e.reach].Reachable {
		e.reach++
	}
	return e
}

// serves reports whether the entry answers a request that needs the need
// best candidates, 0 meaning the whole ranking.
func (e *rankEntry) serves(need int) bool {
	return e.whole || (need > 0 && need <= len(e.ranked))
}

// appendShaped appends the answer to one request to dst: idOrder selects
// option two's ID order (the reachable prefix by node, then the rest by
// node), exclUnre applies the recovery policy's unreachable filter (with the
// all-unreachable graceful fallback), and count > 0 truncates. An entry that
// is not whole is shaped only for what it serves: best-first, at most its
// length.
func (e *rankEntry) appendShaped(dst []Candidate, idOrder, exclUnre bool, count int) []Candidate {
	list := e.ranked
	if exclUnre && e.reach > 0 {
		// The filter keeps the reachable prefix; reach == 0 keeps the full
		// list (the graceful fallback).
		list = list[:e.reach]
	}
	if !idOrder {
		if count > 0 && count < len(list) {
			list = list[:count]
		}
		return append(dst, list...)
	}
	start := len(dst)
	dst = append(dst, list...)
	byNode := func(a, b Candidate) int { return cmp.Compare(a.Node, b.Node) }
	reach := start + min(e.reach, len(list))
	slices.SortFunc(dst[start:reach], byNode)
	slices.SortFunc(dst[reach:], byNode)
	if count > 0 && count < len(list) {
		dst = dst[:start+count]
	}
	return dst
}

// RankCacheStats reports cache effectiveness.
type RankCacheStats struct {
	// Hits counts lookups served by the epoch's entry for their key.
	Hits uint64
	// Misses counts lookups that computed a ranking: the key had no entry
	// this epoch, or its entry holds fewer best-first candidates than the
	// request needs.
	Misses uint64
	// Invalidations counts epoch advances observed by the cache.
	Invalidations uint64
}

// rankCache memoizes best-first rankings per collector epoch. All
// methods are safe for concurrent use. Entries from older epochs are
// discarded wholesale the first time a newer epoch is observed, so the
// cache never serves results computed from a superseded topology.
type rankCache struct {
	mu      sync.Mutex
	valid   bool
	epoch   uint64
	entries map[cacheKey]*rankEntry
	stats   RankCacheStats
}

// syncEpochLocked resets the cache when the observed epoch moved.
func (c *rankCache) syncEpochLocked(epoch uint64) {
	if c.valid && c.epoch == epoch {
		return
	}
	if c.valid {
		c.stats.Invalidations++
	}
	c.valid = true
	c.epoch = epoch
	c.entries = make(map[cacheKey]*rankEntry)
}

// rankMiss is the handle lookup returns on a miss: the only way to insert
// into the cache. It carries the epoch and key of the lookup, so a caller
// cannot store under a different key or epoch.
type rankMiss struct {
	cache *rankCache
	epoch uint64
	key   cacheKey
}

// lookup returns the cached entry for key at the given epoch when it holds
// the need best candidates (0: the whole ranking), or nil and the miss
// handle to store the computed ranking through.
func (c *rankCache) lookup(epoch uint64, key cacheKey, need int) (*rankEntry, rankMiss) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncEpochLocked(epoch)
	if entry, ok := c.entries[key]; ok && entry.serves(need) {
		c.stats.Hits++
		return entry, rankMiss{}
	}
	c.stats.Misses++
	return nil, rankMiss{cache: c, epoch: epoch, key: key}
}

// store records the ranking computed for the missed lookup — whole, or only
// its first len(ranked) candidates — replacing any entry the key had. It
// takes ownership of ranked and returns the built entry, so the caller can
// answer from the computation it just performed.
func (m rankMiss) store(ranked []Candidate, whole bool) *rankEntry {
	entry := newRankEntry(ranked, whole)
	c := m.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncEpochLocked(m.epoch)
	c.entries[m.key] = entry
	return entry
}

// Stats returns a snapshot of the cache counters.
func (c *rankCache) Stats() RankCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
