package collector

// Shortest-path trees. Each structure owns one tree per destination, built on
// first use and kept for as long as the structure lives: successive
// snapshots share one structure until the adjacency or the host set changes
// (snapshot.go), so they share its trees, and a superseded snapshot keeps
// its own structure and with it its own trees. A change to the adjacency
// builds a new structure, whose trees are built afresh as walks ask for them.
//
// A tree also carries, for every node, the metric slot of its hop toward
// the destination, so a ranking reads each hop's measurements as one array
// load. Slots belong to the structure's CSR layout, which is one more reason
// a tree never outlives its structure. A published tree is never written
// again.
//
// Trees are index-based: node i is nodes[i] of the snapshot, and because the
// node list is sorted, index order equals lexicographic order, preserving the
// deterministic BFS tie-break rule shared with netsim.ComputeRoutes.
//
// Walks toward a single-homed host h — a host whose neighbour row is exactly
// one switch e — follow e's tree and then take the hop e->h (structure.root
// and lastSlot, filled by flatten), so a structure holds one tree per switch
// hosts hang off rather than one per host. The answers are those of h's own
// tree: BFS from h discovers only e at level 1 and from there is the BFS
// from e (same sorted expansion, first-discoverer rule and level barrier),
// so the two trees differ only at next[e] (h's tree: h) and next[h];
// lastSlot[h] is the DirSlot(e, h) that hopSlots gives slot[e] in h's tree,
// so an asymmetric row resolves alike. e must be a switch: a host is never
// expanded unless it is the destination, so a host-to-host link keeps its
// own tree, as does a host homed on two switches.

// destTree is the BFS shortest-path tree toward one destination, indexed by
// node index: next[i] is the next hop of node i toward the destination and
// slot[i] the metric slot of that hop, DirSlot(i, next[i]) in the structure
// the tree was built over (both -1 when i is unreachable, or the destination
// itself). Immutable once published.
type destTree struct {
	next indexed[NodeIdx, NodeIdx]
	slot indexed[NodeIdx, Slot]
}

// tree returns the shortest-path tree toward node index idst (nil when idst
// is out of range, mirroring an unknown destination), building it on first
// use. Two readers that both miss build the same tree; the first to publish
// wins and the other's copy is dropped.
func (s *structure) tree(idst NodeIdx) *destTree {
	if idst < 0 || int(idst) >= len(s.nodes) {
		return nil
	}
	p := s.trees.ref(idst)
	if tree := p.Load(); tree != nil {
		return tree
	}
	if tree := buildDestTree(s, idst); p.CompareAndSwap(nil, tree) {
		return tree
	}
	return p.Load()
}

// buildDestTree runs the deterministic BFS from the destination over the
// structure's index arrays: sorted-neighbor expansion (index order is name
// order), first-discoverer-wins, and hosts discovered but never expanded —
// the same rule as netsim.ComputeRoutes. One FIFO queue holds the frontier:
// it pops every node of level L, in discovery order, before any of level
// L+1, so it expands exactly as a level-by-level frontier would. Each node
// enters it at most once, so it never grows past its first allocation.
func buildDestTree(s *structure, idst NodeIdx) *destTree {
	next := make([]NodeIdx, len(s.nodes))
	for i := range next {
		next[i] = -1
	}
	queue := make([]NodeIdx, 1, len(s.nodes))
	queue[0] = idst
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, nb := range s.nbrIdx.at(cur) {
			if next[nb] != -1 || nb == idst {
				continue // already discovered
			}
			next[nb] = cur
			if !s.hostFlag.at(nb) {
				queue = append(queue, nb)
			}
		}
	}
	return &destTree{next: indexed[NodeIdx, NodeIdx]{next}, slot: hopSlots(s, next)}
}

// hopSlots resolves, against structure s, the metric slot of every node's
// hop toward the destination of the tree whose next-hop array is next.
func hopSlots(s *structure, next []NodeIdx) indexed[NodeIdx, Slot] {
	slot := make([]Slot, len(next))
	for i := range NodeIdx(len(next)) {
		slot[i] = -1
		if next[i] >= 0 {
			slot[i] = s.DirSlot(i, next[i])
		}
	}
	return indexed[NodeIdx, Slot]{slot}
}
