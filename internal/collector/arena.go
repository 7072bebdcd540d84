package collector

import (
	"sort"
	"sync/atomic"
	"time"
)

// CSR edge-metric arena. A structure flattens the neighbor index rows
// (nbrIdx) the path trees run on into one CSR array, and a snapshot holds
// every per-direction edge metric (delay, rate, windowed queue max)
// in one flat slot array, so the scheduler reads metrics as array loads
// indexed by CSR position.
//
// Coordinate systems: the read path runs in four, and each has its own Go
// type so that the compiler keeps them apart. A node index (NodeIdx) i is
// nodes[i] (sorted, so index order is name order). A host position (int)
// is a place in the sorted host list, the key space of the rank cache's
// requesters. A CSR edge position (edgePos) e is the position of neighbor v
// in u's row: edgeStart[u] <= e < edgeStart[u+1] and nbrFlat[e] == v. A
// metric slot (Slot) is 2e or 2e+1. Every slice indexed by one of the three
// int32 kinds, but the nodes list, is an indexed value, reached through at
// or ref with an index of that kind, so reading the slot arena with a node
// index does not compile.
//
// Each CSR edge carries BOTH directions' metrics: slot 2e holds the u->v
// direction and slot 2e+1 holds v->u. Storing the reverse direction
// alongside is what makes tree walks resolvable: a destination-tree hop
// a->b guarantees the CSR edge (b, a) exists (BFS discovered a out of b's
// neighbor row), while the forward edge (a, b) may have aged out
// independently — adjacency is directional. DirSlot tries the forward edge
// first, then the reverse.
//
// What a slot holds: the forward slot 2e is u->v's delay history, rate and
// the windowed queue maximum of u's egress port toward v. The reverse slot
// 2e+1 is a copy of v->u's own forward slot while that adjacency exists;
// once it has aged out, the reverse slot carries v->u's measured delay
// and rate (link-delay history outlives eviction, see pruneAdjLocked) but
// no queue value — the egress port went with the adjacency. Pairs
// adjacent in neither direction have no slot.
//
// The collector keeps one live slot array current under its lock as it
// ingests (state.go) and a snapshot is a copy of it; slotPair is how the
// collector's per-edge and per-port state finds its slots without a lookup.
//
// Hand-crafted test topologies build the same arena with every slot
// unmeasured.

// NodeIdx is a node index: a position in a snapshot's sorted node list.
type NodeIdx int32

// Slot is a directed metric slot: 2e or 2e+1 of CSR edge e.
type Slot int32

// edgePos is a CSR edge position: an index into nbrFlat.
type edgePos int32

// indexed is a slice reached only by an index of type I. Go lets any
// integer index a slice, so the wrapper is what stops a NodeIdx from reading
// a Slot-indexed array; building, ranging and slicing name s. ref reaches an
// element in place: at copies it, which for a struct is a copy to the stack.
type indexed[I ~int32, T any] struct{ s []T }

func (v indexed[I, T]) at(i I) T   { return v.s[i] }
func (v indexed[I, T]) ref(i I) *T { return &v.s[i] }

// newStructure indexes the sorted node and host lists and allocates the
// per-node rows; the caller fills hostFlag and nbrIdx, then calls flatten.
func newStructure(nodes, hostList []string) *structure {
	s := &structure{
		nodes:     nodes,
		nodeIndex: make(map[string]NodeIdx, len(nodes)),
		nbrIdx:    indexed[NodeIdx, []NodeIdx]{make([][]NodeIdx, len(nodes))},
		trees:     indexed[NodeIdx, atomic.Pointer[destTree]]{make([]atomic.Pointer[destTree], len(nodes))},
		hostFlag:  indexed[NodeIdx, bool]{make([]bool, len(nodes))},
		hostList:  hostList,
		hostIdx:   make([]NodeIdx, len(hostList)),
	}
	for i := range NodeIdx(len(nodes)) {
		s.nodeIndex[nodes[i]] = i
	}
	for i, h := range hostList {
		if j, ok := s.nodeIndex[h]; ok {
			s.hostIdx[i] = j
		} else {
			s.hostIdx[i] = -1 // host with no current adjacency
		}
	}
	return s
}

// flatten lays the nbrIdx rows end to end in CSR form and resolves every
// node's walk root and last-hop slot (the caller has filled hostFlag).
func (s *structure) flatten() {
	n := NodeIdx(len(s.nodes))
	s.edgeStart = indexed[NodeIdx, edgePos]{make([]edgePos, n+1)}
	var total edgePos
	for i := range n {
		s.edgeStart.s[i] = total
		total += edgePos(len(s.nbrIdx.at(i)))
	}
	s.edgeStart.s[n] = total
	s.nbrFlat = indexed[edgePos, NodeIdx]{make([]NodeIdx, total)}
	for i := range n {
		lo, hi := s.edgeStart.at(i), s.edgeStart.at(i+1)
		copy(s.nbrFlat.s[lo:hi], s.nbrIdx.at(i))
		// Re-home the row onto the flat array (full-capacity slice so an
		// append can never bleed into the next row).
		s.nbrIdx.s[i] = s.nbrFlat.s[lo:hi:hi]
	}
	s.root = indexed[NodeIdx, NodeIdx]{make([]NodeIdx, n)}
	s.lastSlot = indexed[NodeIdx, Slot]{make([]Slot, n)}
	for i := range n {
		s.root.s[i], s.lastSlot.s[i] = i, -1
		if row := s.nbrIdx.at(i); s.hostFlag.at(i) && len(row) == 1 && !s.hostFlag.at(row[0]) {
			s.root.s[i], s.lastSlot.s[i] = row[0], s.DirSlot(row[0], i)
		}
	}
}

// csrEdge returns the CSR edge position of directed adjacency (u, v), or -1.
func (s *structure) csrEdge(u, v NodeIdx) edgePos {
	lo, hi := s.edgeStart.at(u), s.edgeStart.at(u+1)
	row := s.nbrFlat.s[lo:hi]
	i := sort.Search(len(row), func(k int) bool { return row[k] >= v })
	if i < len(row) && row[i] == v {
		return lo + edgePos(i)
	}
	return -1
}

// slotPair locates the measurements of one direction u->v in a slot array:
// fwd is the forward slot of CSR edge (u, v) and rev the reverse slot of CSR
// edge (v, u), which mirrors it; each is -1 while that adjacency is absent.
type slotPair struct {
	fwd, rev Slot
}

var noSlots = slotPair{fwd: -1, rev: -1}

// edgeSlots returns where direction u->v is held.
func (s *structure) edgeSlots(u, v NodeIdx) slotPair {
	at := noSlots
	if e := s.csrEdge(u, v); e >= 0 {
		at.fwd = Slot(2 * e)
	}
	if r := s.csrEdge(v, u); r >= 0 {
		at.rev = Slot(2*r + 1)
	}
	return at
}

// NodeIndex resolves a node ID to its node index.
func (t *Topology) NodeIndex(id string) (NodeIdx, bool) {
	i, ok := t.nodeIndex[id]
	return i, ok
}

// NodeName returns the ID of node index i.
func (t *Topology) NodeName(i NodeIdx) string { return t.nodes[i] }

// NodeCount returns the number of nodes in the adjacency: node indices run
// from 0 to NodeCount()-1.
func (t *Topology) NodeCount() int { return len(t.nodes) }

// IsHostIdx reports whether node index i is a host.
func (t *Topology) IsHostIdx(i NodeIdx) bool { return t.hostFlag.at(i) }

// HostCount returns the number of known hosts (including hosts with no
// current adjacency).
func (t *Topology) HostCount() int { return len(t.hostList) }

// HostName returns the ID of the j-th host in sorted host order.
func (t *Topology) HostName(j int) string { return t.hostList[j] }

// HostNodeIndex returns the node index of the j-th host, or -1 for a
// host with no current adjacency.
func (t *Topology) HostNodeIndex(j int) NodeIdx { return t.hostIdx[j] }

// WalkRoot returns the node whose tree a walk toward dst follows, and the
// slot of the hop from that node to dst: a single-homed host's switch and
// the switch's hop to it, otherwise dst itself and -1 (also when dst is out
// of range). A walk from any src but dst itself is the walk to the root
// and then, when the root is not dst, that one hop (spt.go).
func (t *Topology) WalkRoot(dst NodeIdx) (root NodeIdx, last Slot) {
	if dst < 0 || int(dst) >= len(t.root.s) {
		return dst, -1
	}
	return t.root.at(dst), t.lastSlot.at(dst)
}

// HostIndex returns id's position in the sorted host list, or -1 if id is
// not a known host.
func (t *Topology) HostIndex(id string) int {
	j := sort.SearchStrings(t.hostList, id)
	if j < len(t.hostList) && t.hostList[j] == id {
		return j
	}
	return -1
}

// DirSlot returns the metric slot for the directed pair from->to: the
// forward CSR edge's even slot when (from, to) is in the adjacency, the
// reverse edge's odd slot when only (to, from) is, and -1 when the pair is
// not adjacent in either direction. Destination-tree hops always resolve
// (the reverse edge is the hop's discovery edge), and a tree resolves each
// of its hops once, when it is built (spt.go): walks read them from there.
func (s *structure) DirSlot(from, to NodeIdx) Slot {
	if e := s.csrEdge(from, to); e >= 0 {
		return Slot(2 * e)
	}
	if e := s.csrEdge(to, from); e >= 0 {
		return Slot(2*e + 1)
	}
	return -1
}

// SlotDelay returns the latency estimate of a metric slot (ok=false when
// the slot is -1 or the direction was never measured).
func (t *Topology) SlotDelay(s Slot) (time.Duration, bool) {
	if s < 0 || !t.slots.ref(s).delayOK {
		return 0, false
	}
	return t.slots.ref(s).delay, true
}

// SlotRate returns the assumed capacity of a metric slot (the default rate
// for slot -1).
func (t *Topology) SlotRate(s Slot) int64 {
	if s < 0 {
		return t.defaultRate
	}
	return t.slots.ref(s).rate
}

// SlotQueueMax returns the windowed maximum queue occupancy of the egress
// port behind a metric slot (ok=false when the slot is -1 or the port had
// no in-window report).
func (t *Topology) SlotQueueMax(s Slot) (int, bool) {
	if s < 0 || !t.slots.ref(s).queueOK {
		return 0, false
	}
	return int(t.slots.ref(s).queue), true
}

// PathCode classifies the outcome of an index-space path walk.
type PathCode uint8

const (
	// PathOK: the walk reached dst.
	PathOK PathCode = iota
	// PathUnknownSrc: src is out of range or has no adjacency (at = src).
	PathUnknownSrc
	// PathNoRoute: dst is unknown or the tree has no route from src.
	PathNoRoute
	// PathHostTransit: the tree routes through a mid-path host (at = the
	// host's node index).
	PathHostTransit
	// PathBroken: the tree chain dead-ends mid-walk (at = the node with no
	// next hop).
	PathBroken
	// PathLoop: the walk exceeded the node count (corrupted cyclic tree).
	PathLoop
)

// PathInto walks the destination tree from src to dst, appending the hop
// sequence of node indices (both endpoints included) into scratch[:0]. The
// returned slice re-homes the scratch: callers own it and store it back for
// reuse, so a warmed walk performs zero allocations. at is src for
// PathUnknownSrc, the offending node index for PathHostTransit/PathBroken,
// and -1 otherwise. Pass dst=-1 for an unresolvable destination (yields
// PathNoRoute).
func (t *Topology) PathInto(src, dst NodeIdx, scratch []int32) (path []int32, code PathCode, at NodeIdx) {
	return walk(t, src, dst, false, scratch)
}

// SlotsInto is PathInto for estimates: it walks from src to dst appending
// each hop's metric slot — what SlotDelay, SlotRate and SlotQueueMax read —
// instead of each node, with the same PathCode and at in the same cases. A
// PathOK walk took len(slots) hops, and only its first can leave a host.
func (t *Topology) SlotsInto(src, dst NodeIdx, scratch []Slot) (slots []Slot, code PathCode, at NodeIdx) {
	return walk(t, src, dst, true, scratch)
}

// walk is the one tree walk: it appends, per hop, the hop's metric slot
// (bySlot, E = Slot) or the node the hop arrives at, after the source
// itself (E = int32). It follows the tree of dst's root to the root, then
// takes the root's hop to dst when the two differ (a single-homed host; see
// spt.go).
func walk[E ~int32](t *Topology, src, dst NodeIdx, bySlot bool, scratch []E) (out []E, code PathCode, at NodeIdx) {
	if src < 0 || int(src) >= len(t.nodes) {
		return scratch[:0], PathUnknownSrc, src
	}
	out = scratch[:0]
	if !bySlot {
		out = append(out, E(src))
	}
	if src == dst {
		return out, PathOK, -1
	}
	if len(t.nbrIdx.at(src)) == 0 {
		return scratch[:0], PathUnknownSrc, src
	}
	root, last := t.WalkRoot(dst)
	if src != root {
		tree := t.tree(root)
		if tree == nil || tree.next.at(src) == -1 {
			return scratch[:0], PathNoRoute, -1
		}
		for cur, hops := src, 0; cur != root; {
			if cur != src && t.hostFlag.at(cur) {
				return out, PathHostTransit, cur
			}
			nxt := tree.next.at(cur)
			if nxt < 0 {
				return out, PathBroken, cur
			}
			if bySlot {
				out = append(out, E(tree.slot.at(cur)))
			} else {
				out = append(out, E(nxt))
			}
			cur = nxt
			if hops++; hops > len(t.nodes) {
				return out, PathLoop, -1
			}
		}
	}
	if root != dst {
		if bySlot {
			out = append(out, E(last))
		} else {
			out = append(out, E(dst))
		}
	}
	return out, PathOK, -1
}
