package collector

import "sync"

// Incremental shortest-path-tree maintenance. The historical collector
// memoized one BFS tree per destination inside each snapshot, so every
// epoch advance — even a single flapped link — threw away every
// destination's tree. The sptStore versions the topology structure with a
// sequence number and a bounded delta log of edge additions/removals
// between consecutive structure rebuilds (snapshots that share a structure
// share its sequence); a cached destination tree whose sequence lags
// the current structure is caught up when no logged delta can affect it
// (the common case: a link flap in one corner leaves the vast majority of
// destination trees provably intact) and rebuilt from scratch only when a
// delta actually touches it.
//
// A tree also carries, for every node, the metric slot of its hop toward
// the destination, so a ranking reads each hop's measurements as one array
// load. Slots belong to one structure's CSR layout while next hops survive a
// catch-up, so catching a tree up makes a new destTree that shares next and
// holds slots resolved against the new structure. A published tree is never
// written again: readers of a superseded snapshot may still be walking it.
//
// Trees are index-based: node i is nodes[i] of the snapshot, and
// because the node list is sorted, index order equals lexicographic
// order, preserving the deterministic BFS tie-break rule shared with
// netsim.ComputeRoutes. The delta classifier's soundness rests on that BFS:
//
//   - a removed directed edge (u, v) can only change the tree toward dst if
//     it was v's discovery edge (next[v] == u): any other edge into v loses
//     the first-discoverer race, so deleting it replays identically;
//   - an added directed edge (u, v) cannot change the tree if u is
//     unreachable (BFS never expands u), if u is a non-destination host
//     (hosts are discovered but never expanded), or if v is no deeper in
//     the tree than u (v is already visited by the time u expands — the
//     level barrier); otherwise (v deeper, or unreachable) the tree is
//     conservatively rebuilt, which also covers same-level parent-order
//     changes.
//
// A change to the node set or host flags shifts indices or expansion rules,
// so it conservatively clears every cached tree.
//
// Walks toward a single-homed host h — a host whose neighbour row is exactly
// one switch e — follow e's tree and then take the hop e->h (structure.root
// and lastSlot, filled by flatten), so the store holds one tree per switch
// hosts hang off rather than one per host. The answers are those of h's own
// tree: BFS from h discovers only e at level 1 and from there is the BFS
// from e (same sorted expansion, first-discoverer rule and level barrier),
// so the two trees differ only at next[e] (h's tree: h) and next[h];
// lastSlot[h] is the DirSlot(e, h) that hopSlots gives slot[e] in h's tree,
// so an asymmetric row resolves alike. e must be a switch: a host is never
// expanded unless it is the destination, so a host-to-host link keeps its
// own tree, as does a host homed on two switches.

// sptDeltaLogCap bounds the delta log; trees lagging further behind than
// the log reaches are rebuilt.
const sptDeltaLogCap = 64

type sptEdge struct{ u, v NodeIdx }

type sptDelta struct {
	seq uint64
	// nodesChanged marks a build where the node list or host flags
	// changed; added/removed are empty then (indices are not comparable).
	nodesChanged   bool
	added, removed []sptEdge
}

// destTree is the BFS shortest-path tree toward one destination, indexed by
// node index: next[i] is the next hop of node i toward the destination and
// slot[i] the metric slot of that hop, DirSlot(i, next[i]) in the structure
// numbered seq (both -1 when i is unreachable, or the destination itself).
// Immutable once published.
type destTree struct {
	seq  uint64
	next indexed[NodeIdx, NodeIdx]
	slot indexed[NodeIdx, Slot]
}

// depth returns node i's hop count toward the destination idst, walking the
// next chain (-1 when unreachable). Only the delta classifier asks, and only
// when the adjacency changed, so trees do not store it.
func (tree *destTree) depth(i, idst NodeIdx) int32 {
	var d int32
	for i != idst {
		if i = tree.next.at(i); i < 0 || int(d) > len(tree.next.s) {
			return -1
		}
		d++
	}
	return d
}

// sptStore versions topology structure and caches per-destination
// trees across snapshots.
type sptStore struct {
	mu  sync.RWMutex
	seq uint64
	// prev* hold the latest structure, for diffing.
	prevNodes []string
	prevNbr   indexed[NodeIdx, []NodeIdx]
	prevHost  []bool
	// deltas is the recent history, ascending by seq.
	deltas []sptDelta
	// trees holds the cached tree toward each node of prevNodes (nil until
	// asked for); a change to the node set replaces the table.
	trees indexed[NodeIdx, *destTree]
}

func newSPTStore() *sptStore { return &sptStore{} }

// advance registers a rebuilt structure and returns its sequence number.
// Identical structure keeps the current sequence (trees stay valid as-is); a
// changed neighbor structure appends a delta; a changed node list or
// host-flag set clears all cached trees.
func (s *sptStore) advance(nodes []string, nbr indexed[NodeIdx, []NodeIdx], hostFlag []bool) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.prevNodes == nil && s.seq == 0 {
		s.seq = 1
		s.prevNodes, s.prevNbr, s.prevHost = nodes, nbr, hostFlag
		s.trees.s = make([]*destTree, len(nodes))
		return s.seq
	}
	nodesChanged := !stringsEqual(s.prevNodes, nodes) || !boolsEqual(s.prevHost, hostFlag)
	var added, removed []sptEdge
	if !nodesChanged {
		for i := range NodeIdx(len(nbr.s)) {
			a, r := diffSortedEdges(i, s.prevNbr.at(i), nbr.at(i))
			added = append(added, a...)
			removed = append(removed, r...)
		}
		if len(added) == 0 && len(removed) == 0 {
			return s.seq // structure unchanged: same sequence, trees valid
		}
	}
	s.seq++
	s.prevNodes, s.prevNbr, s.prevHost = nodes, nbr, hostFlag
	if nodesChanged {
		s.trees.s = make([]*destTree, len(nodes))
		s.deltas = s.deltas[:0]
		s.deltas = append(s.deltas, sptDelta{seq: s.seq, nodesChanged: true})
		return s.seq
	}
	s.deltas = append(s.deltas, sptDelta{seq: s.seq, added: added, removed: removed})
	if len(s.deltas) > sptDeltaLogCap {
		s.deltas = append(s.deltas[:0:0], s.deltas[len(s.deltas)-sptDeltaLogCap:]...)
	}
	return s.seq
}

// diffSortedEdges diffs two ascending neighbor rows of node u into added
// and removed directed edges (u, v).
func diffSortedEdges(u NodeIdx, old, cur []NodeIdx) (added, removed []sptEdge) {
	i, j := 0, 0
	for i < len(old) || j < len(cur) {
		switch {
		case i == len(old):
			added = append(added, sptEdge{u, cur[j]})
			j++
		case j == len(cur):
			removed = append(removed, sptEdge{u, old[i]})
			i++
		case old[i] == cur[j]:
			i++
			j++
		case old[i] < cur[j]:
			removed = append(removed, sptEdge{u, old[i]})
			i++
		default:
			added = append(added, sptEdge{u, cur[j]})
			j++
		}
	}
	return added, removed
}

// treeForIdx returns the shortest-path tree toward node index idst for
// topology t (nil when idst is out of range, mirroring an unknown
// destination), using the shared store when t is the store's current
// structure (catching up or rebuilding the cached tree as the delta log
// dictates) and a per-topology scratch memo otherwise (superseded snapshots
// keep working, they just don't share).
func (t *Topology) treeForIdx(idst NodeIdx) *destTree {
	if idst < 0 || int(idst) >= len(t.nodes) {
		return nil
	}
	if s := t.store; s != nil {
		s.mu.RLock()
		if s.seq == t.seq {
			if tree := s.trees.at(idst); tree != nil && tree.seq == t.seq {
				s.mu.RUnlock()
				return tree
			}
		}
		s.mu.RUnlock()
		s.mu.Lock()
		if s.seq == t.seq {
			tree := s.trees.at(idst)
			if tree == nil || tree.seq != t.seq {
				if tree != nil && s.catchUpLocked(tree, t, idst) {
					// A new value, never a refill: the lagging tree may be in
					// use by readers of the snapshot it was built for.
					tree = &destTree{seq: t.seq, next: tree.next, slot: hopSlots(t.structure, tree.next.s)}
				} else {
					tree = buildDestTree(t.structure, idst)
				}
				s.trees.s[idst] = tree
			}
			s.mu.Unlock()
			return tree
		}
		s.mu.Unlock()
		// The store advanced past this snapshot: fall through to scratch.
	}
	return t.scratchTree(idst)
}

// catchUpLocked reports whether tree (built at tree.seq against the same
// node ordering) is provably unaffected by every delta in
// (tree.seq, t.seq]. Deltas outside the log, node-set changes, and any
// possibly-affecting edge change all return false (rebuild).
func (s *sptStore) catchUpLocked(tree *destTree, t *Topology, idst NodeIdx) bool {
	if tree.seq > t.seq {
		return false
	}
	// The log must cover every sequence in (tree.seq, t.seq].
	for want := tree.seq + 1; want <= t.seq; want++ {
		d, ok := s.deltaLocked(want)
		if !ok || d.nodesChanged {
			return false
		}
		if sptDeltaAffects(d, tree, t.hostFlag, idst) {
			return false
		}
	}
	return true
}

func (s *sptStore) deltaLocked(seq uint64) (*sptDelta, bool) {
	if len(s.deltas) == 0 {
		return nil, false
	}
	first := s.deltas[0].seq
	if seq < first || seq > s.deltas[len(s.deltas)-1].seq {
		return nil, false
	}
	return &s.deltas[seq-first], true
}

// sptDeltaAffects applies the soundness rules from the package comment.
func sptDeltaAffects(d *sptDelta, tree *destTree, hostFlag indexed[NodeIdx, bool], idst NodeIdx) bool {
	for _, e := range d.removed {
		if tree.next.at(e.v) == e.u {
			return true // discovery edge of v toward dst: tree invalid
		}
	}
	for _, e := range d.added {
		if hostFlag.at(e.u) && e.u != idst {
			continue // non-destination hosts are never expanded
		}
		du := tree.depth(e.u, idst)
		if du == -1 {
			continue // u unreachable: BFS never expands it
		}
		if dv := tree.depth(e.v, idst); dv == -1 || dv > du {
			return true // v newly reachable, closer, or parent order may shift
		}
	}
	return false
}

// scratchTree memoizes trees privately on the Topology (used when the
// snapshot is superseded or was not built by a collector).
func (t *Topology) scratchTree(idst NodeIdx) *destTree {
	t.scratchMu.Lock()
	defer t.scratchMu.Unlock()
	if t.scratch.s == nil {
		t.scratch.s = make([]*destTree, len(t.nodes))
	}
	tree := t.scratch.at(idst)
	if tree == nil {
		tree = buildDestTree(t.structure, idst)
		t.scratch.s[idst] = tree
	}
	return tree
}

// buildDestTree runs the deterministic frontier BFS from the destination
// over the structure's index arrays: sorted-neighbor expansion (index order is
// name order), first-discoverer-wins, level barrier between frontiers, and
// hosts discovered but never expanded — the same rule as
// netsim.ComputeRoutes.
func buildDestTree(s *structure, idst NodeIdx) *destTree {
	next := make([]NodeIdx, len(s.nodes))
	for i := range next {
		next[i] = -1
	}
	frontier := []NodeIdx{idst}
	var nextFrontier []NodeIdx
	for len(frontier) > 0 {
		nextFrontier = nextFrontier[:0]
		for _, cur := range frontier {
			for _, nb := range s.nbrIdx.at(cur) {
				if next[nb] != -1 || nb == idst {
					continue // already discovered
				}
				next[nb] = cur
				if !(s.hostFlag.at(nb) && nb != idst) {
					nextFrontier = append(nextFrontier, nb)
				}
			}
		}
		frontier, nextFrontier = nextFrontier, frontier
	}
	return &destTree{seq: s.seq, next: indexed[NodeIdx, NodeIdx]{next}, slot: hopSlots(s, next)}
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

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
