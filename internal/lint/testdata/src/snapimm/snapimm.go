// Package snapimm is the snapshotimmutable fixture: stores through
// published Topology snapshots and cached RankEntry views, against the
// sanctioned read/reslice/clone idioms.
package snapimm

import (
	"sort"

	"intsched/internal/collector"
	"intsched/internal/core"
)

// BadSnapshotStore mutates the snapshot every concurrent caller shares.
func BadSnapshotStore(c *collector.Collector) {
	topo := c.Snapshot()
	topo.Nodes[0] = "renamed" // want `^store through topology snapshot \(topo\.Nodes\[\.\.\.\]\): published snapshots and cached views are shared and immutable; clone before mutating \(core\.CloneCandidates for candidate views\)$`
}

// BadParamStore: outside the collector, every *Topology parameter came from
// Snapshot — it is published state by construction.
func BadParamStore(topo *collector.Topology) {
	topo.Nodes[0] = "renamed" // want `^store through topology snapshot \(topo\.Nodes\[\.\.\.\]\): published snapshots and cached views are shared and immutable; clone before mutating \(core\.CloneCandidates for candidate views\)$`
}

// BadViewElementStore writes into the cached backing array through a
// zero-copy view.
func BadViewElementStore(e *core.RankEntry) {
	view := e.Ranked()
	view[0].Delay = 0 // want `^store through cached candidate view \(view\[\.\.\.\]\.Delay\): published snapshots and cached views are shared and immutable; clone before mutating \(core\.CloneCandidates for candidate views\)$`
}

// BadViewElementReplace overwrites a whole cached element.
func BadViewElementReplace(miss core.RankMiss, ranked []core.Candidate) {
	entry := miss.Store(ranked, true)
	view := entry.Ranked()
	view[0] = core.Candidate{} // want `^store through cached candidate view \(view\[\.\.\.\]\): published snapshots and cached views are shared and immutable; clone before mutating \(core\.CloneCandidates for candidate views\)$`
}

// BadIncDec mutates through the view with ++.
func BadIncDec(e *core.RankEntry) {
	view := e.Ranked()
	view[0].Hops++ // want `^store through cached candidate view \(view\[\.\.\.\]\.Hops\): published snapshots and cached views are shared and immutable; clone before mutating \(core\.CloneCandidates for candidate views\)$`
}

// BadAppend may write past the view's length into cached elements a
// Shaped prefix still serves.
func BadAppend(e *core.RankEntry, extra core.Candidate) []core.Candidate {
	view := e.Shaped(false, true, 3)
	return append(view, extra) // want `^append to cached candidate view: the view is a prefix reslice of a shared backing array, so append may overwrite cached elements past the view; clone first \(core\.CloneCandidates\)$`
}

// BadCopy clobbers the shared storage wholesale.
func BadCopy(e *core.RankEntry, src []core.Candidate) {
	view := e.Ranked()
	copy(view, src) // want `^copy into cached candidate view: published snapshots and cached views are shared and immutable; copy into a fresh slice instead$`
}

// BadSort reorders the storage concurrent readers are iterating.
func BadSort(e *core.RankEntry) {
	view := e.Ranked()
	sort.Slice(view, func(i, j int) bool { // want `^in-place sort of cached candidate view: sorting mutates the shared storage concurrent readers are iterating; sort a clone \(core\.CloneCandidates\)$`
		return view[i].Delay < view[j].Delay
	})
}

// BadLookupEntry taints through the cache's lookup path.
func BadLookupEntry(cache *core.RankCache, epoch uint64, key core.RankKey) {
	entry, _ := cache.Lookup(epoch, key, 0)
	if entry == nil {
		return
	}
	view := entry.Ranked()
	view[0].Reachable = false // want `^store through cached candidate view \(view\[\.\.\.\]\.Reachable\): published snapshots and cached views are shared and immutable; clone before mutating \(core\.CloneCandidates for candidate views\)$`
}

// GoodClone is the sanctioned mutation idiom: clone, then do anything.
func GoodClone(e *core.RankEntry) []core.Candidate {
	own := core.CloneCandidates(e.Ranked())
	sort.Slice(own, func(i, j int) bool { return own[i].Delay < own[j].Delay })
	if len(own) > 0 {
		own[0].Hops = 0
	}
	return own
}

// GoodReslice: rebinding a name to a narrower view changes the name, not
// the shared storage.
func GoodReslice(e *core.RankEntry) []core.Candidate {
	view := e.Ranked()
	if len(view) > 3 {
		view = view[:3]
	}
	return view
}

// GoodRangeCopy: ranging over the view yields struct copies; mutating a
// copy is local.
func GoodRangeCopy(e *core.RankEntry) int {
	total := 0
	for _, c := range e.Ranked() {
		c.Delay = 0
		total += c.Hops
	}
	return total
}

// GoodHostsCopy: Topology.Hosts returns a fresh copy, not a view.
func GoodHostsCopy(topo *collector.Topology) []string {
	hosts := topo.Hosts()
	if len(hosts) > 0 {
		hosts[0] = "mine"
	}
	return hosts
}

// GoodMissHandle: only Lookup's first result is shared; the miss handle is
// a plain value.
func GoodMissHandle(cache *core.RankCache, epoch uint64, key core.RankKey) core.RankMiss {
	entry, miss := cache.Lookup(epoch, key, 0)
	_ = entry
	handles := []core.RankMiss{{}}
	handles[0] = miss
	return handles[0]
}

// GoodRebind: a name that held a view may be rebound to fresh storage and
// mutated freely afterwards.
func GoodRebind(e *core.RankEntry) []core.Candidate {
	view := e.Ranked()
	view = core.CloneCandidates(view)
	view[0].Hops = 99
	return view
}

// GoodEntrySlicePointer: storing shared entry pointers into a local slice
// replaces local elements; it is not a store through shared storage.
func GoodEntrySlicePointer(cache *core.RankCache, epoch uint64, keys []core.RankKey) []*core.RankEntry {
	entries := make([]*core.RankEntry, len(keys))
	for i, k := range keys {
		if e, _ := cache.Lookup(epoch, k, 0); e != nil {
			entries[i] = e
		}
	}
	return entries
}
