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
// Entries are immutable RankEntry values holding a best-first ranking with
// its reachable prefix length (and a lazily computed ID-ordered variant),
// so every per-request shaping — unreachable filtering, ID order, count
// truncation — is a zero-allocation reslice of shared storage instead of a
// clone-and-sort per query. An entry holds either the whole ranking or, when
// the query that computed it asked for the k best of more reachable
// candidates, just those k: a prefix of the whole ranking that serves any
// best-first request for at most k. A request the entry is too short for is
// a miss, and its Store replaces the entry; entries are never grown in place.

// RankKey identifies one cacheable ranking computation within an epoch:
// three scalars, no strings hashed on the hot path.
type RankKey struct {
	// From is the querying device's position in the snapshot's sorted host
	// list. Host indices are stable within an epoch (and the cache is
	// epoch-keyed), so the index identifies the device exactly; queries
	// from non-host devices bypass the cache.
	From int32
	// Metric is the ranking strategy.
	Metric Metric
	// DataBytes is the transfer-size hint.
	DataBytes int64
}

// RankEntry is one cached ranking: a best-first candidate list plus the
// precomputed handles request shaping needs. Entries are immutable after
// Store — Shaped returns views of shared storage, and callers must not
// modify what they are handed (clone first to mutate).
type RankEntry struct {
	// ranked is the best-first list. Every ranker emits reachable
	// candidates before unreachable ones (Ranker.Rank), or marks every
	// candidate reachable; reach is the length of that reachable prefix.
	ranked []Candidate
	reach  int
	// whole is false when ranked is only the first len(ranked) candidates
	// of the ranking, all reachable: a counted computation's result.
	whole bool
	// byID materializes the ID-ordered variant (the paper's option two) on
	// first use; many workloads never request it.
	byIDOnce sync.Once
	byID     []Candidate
}

func newRankEntry(ranked []Candidate, whole bool) *RankEntry {
	e := &RankEntry{ranked: ranked, whole: whole}
	for e.reach < len(ranked) && ranked[e.reach].Reachable {
		e.reach++
	}
	return e
}

// Ranked returns the best-first list. Shared storage — read only.
func (e *RankEntry) Ranked() []Candidate { return e.ranked }

// serves reports whether the entry answers a request that needs the need
// best candidates, 0 meaning the whole ranking.
func (e *RankEntry) serves(need int) bool {
	return e.whole || (need > 0 && need <= len(e.ranked))
}

// sortedByID returns the list re-sorted by node ID (reachable first),
// computing it on first use. Shared storage — read only.
func (e *RankEntry) sortedByID() []Candidate {
	e.byIDOnce.Do(func() {
		e.byID = CloneCandidates(e.ranked)
		byNode := func(a, b Candidate) int { return cmp.Compare(a.Node, b.Node) }
		slices.SortFunc(e.byID[:e.reach], byNode)
		slices.SortFunc(e.byID[e.reach:], byNode)
	})
	return e.byID
}

// Shaped applies per-request response shaping as zero-allocation views of
// the entry's storage: idOrder selects the ID-ordered variant (option two),
// exclUnre applies the recovery policy's unreachable filter (with the
// all-unreachable graceful fallback), and count > 0 truncates. An entry that
// is not whole is shaped only for what it serves: best-first, at most its
// length. The result is shared storage — read only.
func (e *RankEntry) Shaped(idOrder, exclUnre bool, count int) []Candidate {
	list := e.ranked
	if idOrder {
		list = e.sortedByID()
	}
	if exclUnre && e.reach > 0 {
		// Both orderings group the reachable prefix first, so the filter
		// is a prefix view; reach == 0 keeps the full list (the graceful
		// fallback).
		list = list[:e.reach]
	}
	if count > 0 && count < len(list) {
		list = list[:count]
	}
	return list
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

// RankCache memoizes best-first rankings per collector epoch. All
// methods are safe for concurrent use. Entries from older epochs are
// discarded wholesale the first time a newer epoch is observed, so the
// cache never serves results computed from a superseded topology.
type RankCache struct {
	mu      sync.Mutex
	valid   bool
	epoch   uint64
	entries map[RankKey]*RankEntry
	stats   RankCacheStats
}

// syncEpochLocked resets the cache when the observed epoch moved.
func (c *RankCache) syncEpochLocked(epoch uint64) {
	if c.valid && c.epoch == epoch {
		return
	}
	if c.valid {
		c.stats.Invalidations++
	}
	c.valid = true
	c.epoch = epoch
	c.entries = make(map[RankKey]*RankEntry)
}

// RankMiss is the handle Lookup returns on a miss: the only way to insert
// into the cache. It carries the epoch and key of the lookup, so a caller
// cannot store under a different key or epoch.
type RankMiss struct {
	cache *RankCache
	epoch uint64
	key   RankKey
}

// Lookup returns the cached entry for key at the given epoch when it holds
// the need best candidates (0: the whole ranking), or nil and the miss
// handle to Store the computed ranking through. The entry's contents are
// shared — shape with Shaped, or CloneCandidates before mutating.
func (c *RankCache) Lookup(epoch uint64, key RankKey, need int) (*RankEntry, RankMiss) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncEpochLocked(epoch)
	if entry, ok := c.entries[key]; ok && entry.serves(need) {
		c.stats.Hits++
		return entry, RankMiss{}
	}
	c.stats.Misses++
	return nil, RankMiss{cache: c, epoch: epoch, key: key}
}

// Store records the ranking computed for the missed lookup — whole, or only
// its first len(ranked) candidates — replacing any entry the key had. It
// takes ownership of ranked (hand it a private slice; it becomes shared
// entry storage) and returns the built entry so the caller can serve views
// of the computation it just performed.
func (m RankMiss) Store(ranked []Candidate, whole bool) *RankEntry {
	entry := newRankEntry(ranked, whole)
	c := m.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncEpochLocked(m.epoch)
	c.entries[m.key] = entry
	return entry
}

// Stats returns a snapshot of the cache counters.
func (c *RankCache) Stats() RankCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CloneCandidates returns a private copy of a ranked list, so cached
// entries can be reordered/truncated per request without corrupting the
// cache.
func CloneCandidates(cs []Candidate) []Candidate {
	if cs == nil {
		return nil
	}
	out := make([]Candidate, len(cs))
	copy(out, cs)
	return out
}
