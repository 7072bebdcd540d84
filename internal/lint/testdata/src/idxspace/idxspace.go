// Package idxspace is the indexspace fixture: the four int32 coordinate
// systems of the flattened read path (node index, host index, CSR edge
// position, directed metric slot), mixed up and used correctly. The local
// arena type shows the trailing-comment annotation grammar; the Topology
// calls exercise the builtin unit table.
package idxspace

import (
	"intsched/internal/collector"
	"intsched/internal/core"
)

// arena mirrors the scheduler's flattened read path.
type arena struct {
	delay  []int64 // unit:[slot] — per-direction delay, indexed by metric slot
	nbr    []int32 // unit:node[edge] — neighbor node at each CSR edge position
	starts []int32 // unit:edge[node] — CSR row starts, indexed by node
}

// BadArenaNodeIndex indexes a slot-indexed arena with a node index — the
// fabricated mix-up: it compiles, reads garbage, and corrupts silently.
func BadArenaNodeIndex(a *arena, topo *collector.Topology, name string) int64 {
	n, ok := topo.NodeIndex(name)
	if !ok {
		return 0
	}
	return a.delay[n] // want `indexing metric-slot-indexed storage with a node-index value`
}

// BadEdgeIndex walks the CSR neighbor array with a node index.
func BadEdgeIndex(a *arena, topo *collector.Topology, name string) int32 {
	n, ok := topo.NodeIndex(name)
	if !ok {
		return 0
	}
	return a.nbr[n] // want `indexing edge-position-indexed storage with a node-index value`
}

// BadSlotIntoAPI hands a node index to the slot-keyed metric API.
func BadSlotIntoAPI(topo *collector.Topology, name string) bool {
	n, ok := topo.NodeIndex(name)
	if !ok {
		return false
	}
	_, okd := topo.SlotDelay(n) // want `passing a node-index value where SlotDelay expects a metric-slot`
	return okd
}

// BadNodeIntoHostAPI confuses the merged node index with the sorted host
// list position.
func BadNodeIntoHostAPI(topo *collector.Topology, name string) string {
	n, ok := topo.NodeIndex(name)
	if !ok {
		return ""
	}
	return topo.HostName(int(n)) // want `passing a node-index value where HostName expects a host-index`
}

// BadAnnotatedLocal assigns across units into a declared local.
func BadAnnotatedLocal(topo *collector.Topology, name string) int32 {
	var h int32 // unit:host — candidate position in the sorted host list
	n, ok := topo.NodeIndex(name)
	if !ok {
		return -1
	}
	h = n // want `assigning a node-index value to h, declared host-index`
	return h
}

// BadArith mixes coordinate systems in arithmetic.
func BadArith(topo *collector.Topology, name string) int32 {
	n, _ := topo.NodeIndex(name)
	h := topo.HostIndex(name)
	return n + int32(h) // want `mixing node-index and host-index values in arithmetic`
}

// BadCompare compares indices from different spaces.
func BadCompare(topo *collector.Topology, name string) bool {
	n, _ := topo.NodeIndex(name)
	h := topo.HostIndex(name)
	return int(n) == h // want `comparing a node-index value with a host-index value`
}

// BadStoreWrongElem stores a host index where neighbor node indices live.
func BadStoreWrongElem(a *arena, topo *collector.Topology, name string) {
	h := topo.HostIndex(name)
	a.nbr[0] = int32(h) // want `assigning a host-index value into node-index storage`
}

// BadRankKeyFrom keys the rank cache by node index; its From field is a
// host-list position.
func BadRankKeyFrom(topo *collector.Topology, name string) core.RankKey {
	n, _ := topo.NodeIndex(name)
	return core.RankKey{From: n} // want `assigning a node-index value to field From, declared host-index`
}

// GoodRankKeyFrom converts the host position the cache key wants.
func GoodRankKeyFrom(topo *collector.Topology, name string) core.RankKey {
	h := topo.HostIndex(name)
	return core.RankKey{From: int32(h)}
}

// GoodSlotRead derives the slot from the directed pair and reads with it.
func GoodSlotRead(a *arena, topo *collector.Topology, name string) int64 {
	n, ok := topo.NodeIndex(name)
	if !ok {
		return 0
	}
	s := topo.DirSlot(n, n)
	if s < 0 {
		return 0
	}
	return a.delay[s]
}

// GoodCSRWalk: row bounds come from the node-indexed starts, the row is
// sliced with edge positions, and iteration yields node indices.
func GoodCSRWalk(a *arena, topo *collector.Topology, name string) int32 {
	n, ok := topo.NodeIndex(name)
	if !ok {
		return 0
	}
	lo, hi := a.starts[n], a.starts[n+1]
	var sum int32
	for _, v := range a.nbr[lo:hi] {
		if topo.IsHostIdx(v) {
			sum += v
		}
	}
	return sum
}

// GoodHostRoundTrip: host position -> node index -> path walk, each value
// staying in its own space.
func GoodHostRoundTrip(topo *collector.Topology, name string, scratch []int32) int {
	h := topo.HostIndex(name)
	if h < 0 {
		return 0
	}
	dst := topo.HostNodeIndex(h)
	src, ok := topo.NodeIndex(name)
	if !ok {
		return 0
	}
	p, code, _ := topo.PathInto(src, dst, scratch)
	if code != collector.PathOK {
		return 0
	}
	return len(p) - 1
}

// GoodSlotWalk: the slot walk takes node indices and yields metric slots,
// which the slot-keyed API reads.
func GoodSlotWalk(a *arena, topo *collector.Topology, w *collector.Walker, name string, scratch []int32) int64 {
	src, ok := topo.NodeIndex(name)
	if !ok {
		return 0
	}
	w.Reset(topo)
	slots, code, _ := w.SlotsInto(src, topo.HostNodeIndex(0), scratch)
	if code != collector.PathOK {
		return 0
	}
	var sum int64
	for _, s := range slots {
		sum += a.delay[s]
	}
	return sum
}

// BadSlotWalkAsNodes treats walked slots as the nodes PathInto would yield.
func BadSlotWalkAsNodes(topo *collector.Topology, w *collector.Walker, src, dst int32, scratch []int32) bool {
	slots, _, _ := w.SlotsInto(src, dst, scratch)
	for _, s := range slots {
		if topo.IsHostIdx(s) { // want `passing a metric-slot value where IsHostIdx expects a node-index`
			return true
		}
	}
	return false
}

// GoodLenBound: the length of U-indexed storage is a bound in U space.
func GoodLenBound(a *arena) bool {
	var e int32 // unit:edge — current CSR edge position
	e = int32(len(a.nbr)) - 1
	return e > 0
}
