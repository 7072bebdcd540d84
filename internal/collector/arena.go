package collector

import (
	"slices"
	"sort"
	"time"
)

// CSR edge-metric arena. A structure flattens the neighbor index rows
// (nbrIdx) the path trees run on into one CSR array, and a snapshot holds
// every per-direction edge metric (delay, rate, windowed queue max)
// in one flat slot array, so the scheduler reads metrics as array loads
// indexed by CSR position.
//
// Coordinate system: node index i is Nodes[i] (sorted, so index order is
// name order). CSR edge id e is the position of neighbor v in u's row:
// edgeStart[u] <= e < edgeStart[u+1] and nbrFlat[e] == v. Each CSR edge
// carries BOTH directions' metrics: slot 2e holds the u->v direction and
// slot 2e+1 holds v->u. Storing the reverse direction alongside is what
// makes tree walks resolvable: a destination-tree hop a->b guarantees the
// CSR edge (b, a) exists (BFS discovered a out of b's neighbor row), while
// the forward edge (a, b) may have aged out independently — adjacency is
// directional. DirSlot tries the forward edge first, then the reverse.
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

// newStructure indexes the sorted node and host lists and allocates the
// per-node rows; the caller fills hostFlag and nbrIdx, then calls flatten.
func newStructure(nodes, hostList []string) *structure {
	s := &structure{
		Nodes:     nodes,
		nodeIndex: make(map[string]int32, len(nodes)),
		nbrIdx:    make([][]int32, len(nodes)),
		hostFlag:  make([]bool, len(nodes)),
		hostList:  hostList,
		hostIdx:   make([]int32, len(hostList)),
	}
	for i, name := range nodes {
		s.nodeIndex[name] = int32(i)
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
	n := len(s.Nodes)
	s.edgeStart = make([]int32, n+1)
	total := 0
	for i, row := range s.nbrIdx {
		s.edgeStart[i] = int32(total)
		total += len(row)
	}
	s.edgeStart[n] = int32(total)
	s.nbrFlat = make([]int32, total)
	for i, row := range s.nbrIdx {
		lo, hi := s.edgeStart[i], s.edgeStart[i+1]
		copy(s.nbrFlat[lo:hi], row)
		// Re-home the row onto the flat array (full-capacity slice so an
		// append can never bleed into the next row).
		s.nbrIdx[i] = s.nbrFlat[lo:hi:hi]
	}
	s.root = make([]int32, n)
	s.lastSlot = make([]int32, n)
	for i, row := range s.nbrIdx {
		s.root[i], s.lastSlot[i] = int32(i), -1
		if s.hostFlag[i] && len(row) == 1 && !s.hostFlag[row[0]] {
			s.root[i], s.lastSlot[i] = row[0], s.DirSlot(row[0], int32(i))
		}
	}
}

// csrEdge returns the CSR edge id of directed adjacency (u, v), or -1.
func (s *structure) csrEdge(u, v int32) int32 {
	lo, hi := s.edgeStart[u], s.edgeStart[u+1]
	row := s.nbrFlat[lo:hi]
	i := sort.Search(len(row), func(k int) bool { return row[k] >= v })
	if i < len(row) && row[i] == v {
		return lo + int32(i)
	}
	return -1
}

// slotPair locates the measurements of one direction u->v in a slot array:
// fwd is the forward slot of CSR edge (u, v) and rev the reverse slot of CSR
// edge (v, u), which mirrors it; each is -1 while that adjacency is absent.
type slotPair struct {
	fwd, rev int32 // unit:slot
}

var noSlots = slotPair{fwd: -1, rev: -1}

// edgeSlots returns where direction u->v is held.
func (s *structure) edgeSlots(u, v int32) slotPair {
	at := noSlots
	if e := s.csrEdge(u, v); e >= 0 {
		at.fwd = 2 * e
	}
	if r := s.csrEdge(v, u); r >= 0 {
		at.rev = 2*r + 1
	}
	return at
}

// NodeIndex resolves a node ID to its node index.
func (t *Topology) NodeIndex(id string) (int32, bool) {
	i, ok := t.nodeIndex[id]
	return i, ok
}

// NodeName returns the ID of node index i.
func (t *Topology) NodeName(i int32) string { return t.Nodes[i] }

// IsHostIdx reports whether node index i is a host.
func (t *Topology) IsHostIdx(i int32) bool { return t.hostFlag[i] }

// HostCount returns the number of known hosts (including hosts with no
// current adjacency).
func (t *Topology) HostCount() int { return len(t.hostList) }

// HostName returns the ID of the j-th host in sorted host order.
func (t *Topology) HostName(j int) string { return t.hostList[j] }

// HostNodeIndex returns the node index of the j-th host, or -1 for a
// host with no current adjacency.
func (t *Topology) HostNodeIndex(j int) int32 { return t.hostIdx[j] }

// HostIndex returns id's position in the sorted host list, or -1 if id is
// not a known host.
func (t *Topology) HostIndex(id string) int {
	j := sort.SearchStrings(t.hostList, id)
	if j < len(t.hostList) && t.hostList[j] == id {
		return j
	}
	return -1
}

// DirSlot returns the metric-slot id for the directed pair from->to: the
// forward CSR edge's even slot when (from, to) is in the adjacency, the
// reverse edge's odd slot when only (to, from) is, and -1 when the pair is
// not adjacent in either direction. Destination-tree hops always resolve
// (the reverse edge is the hop's discovery edge), and a tree resolves each
// of its hops once, when it is built (spt.go): walks read them from there.
func (s *structure) DirSlot(from, to int32) int32 {
	if e := s.csrEdge(from, to); e >= 0 {
		return 2 * e
	}
	if e := s.csrEdge(to, from); e >= 0 {
		return 2*e + 1
	}
	return -1
}

// SlotDelay returns the latency estimate of a metric slot (ok=false when
// the slot is -1 or the direction was never measured).
func (t *Topology) SlotDelay(s int32) (time.Duration, bool) {
	if s < 0 || !t.slots[s].delayOK {
		return 0, false
	}
	return t.slots[s].delay, true
}

// SlotRate returns the assumed capacity of a metric slot (the default rate
// for slot -1).
func (t *Topology) SlotRate(s int32) int64 {
	if s < 0 {
		return t.defaultRate
	}
	return t.slots[s].rate
}

// SlotQueueMax returns the windowed maximum queue occupancy of the egress
// port behind a metric slot (ok=false when the slot is -1 or the port had
// no in-window report).
func (t *Topology) SlotQueueMax(s int32) (int, bool) {
	if s < 0 || !t.slots[s].queueOK {
		return 0, false
	}
	return int(t.slots[s].queue), true
}

// PathCode classifies the outcome of an index-space path walk.
type PathCode uint8

const (
	// PathOK: the walk reached dst.
	PathOK PathCode = iota
	// PathUnknownSrc: src is out of range or has no adjacency.
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
// reuse, so a warmed walk performs zero allocations. at is the offending
// node index for PathHostTransit/PathBroken and -1 otherwise. Pass dst=-1
// for an unresolvable destination (yields PathNoRoute).
func (t *Topology) PathInto(src, dst int32, scratch []int32) (path []int32, code PathCode, at int32) {
	w := Walker{t: t}
	return w.walk(src, dst, false, scratch)
}

// Walker is one reader's handle on the destination trees of a snapshot.
// Reset copies the shared store's tree table under one lock acquisition, so
// a ranking that walks to every host pays for the lock once, not once a
// candidate; a tree the table lacks is built or caught up on first use,
// through the locked path. Published trees are immutable (spt.go), so the
// copies stay right for the snapshot however far the store moves on. A
// Walker is not safe for concurrent use.
type Walker struct {
	t     *Topology
	trees []*destTree // unit:[node]
}

// Reset binds w to snapshot t, reusing its table. Reset(nil) lets go of the
// snapshot and its trees: do so before parking a Walker in a pool.
func (w *Walker) Reset(t *Topology) {
	clear(w.trees)
	w.t, w.trees = t, w.trees[:0]
	if t == nil {
		return
	}
	w.trees = slices.Grow(w.trees, len(t.Nodes))[:len(t.Nodes)]
	if s := t.store; s != nil {
		s.mu.RLock()
		if s.seq == t.seq {
			copy(w.trees, s.trees)
		}
		s.mu.RUnlock()
	}
}

// tree returns the tree toward dst (nil when dst is out of range).
func (w *Walker) tree(dst int32) *destTree {
	if dst < 0 || int(dst) >= len(w.trees) {
		return w.t.treeForIdx(dst) // unbound table (PathInto), or no such node
	}
	tree := w.trees[dst]
	if tree == nil || tree.seq != w.t.seq {
		tree = w.t.treeForIdx(dst)
		w.trees[dst] = tree
	}
	return tree
}

// SlotsInto is PathInto for estimates: it walks from src to dst appending
// each hop's metric slot — what SlotDelay, SlotRate and SlotQueueMax read —
// instead of each node, with the same PathCode and at in the same cases. A
// PathOK walk took len(slots) hops, and only its first can leave a host.
func (w *Walker) SlotsInto(src, dst int32, scratch []int32) (slots []int32, code PathCode, at int32) {
	return w.walk(src, dst, true, scratch)
}

// walk is the one tree walk: it appends, per hop, the hop's metric slot
// (bySlot) or the node the hop arrives at, after the source itself. It
// follows the tree of dst's root to the root, then takes the root's hop to
// dst when the two differ (a single-homed host; see spt.go).
func (w *Walker) walk(src, dst int32, bySlot bool, scratch []int32) (out []int32, code PathCode, at int32) {
	t := w.t
	if src < 0 || int(src) >= len(t.Nodes) {
		return scratch[:0], PathUnknownSrc, src
	}
	out = scratch[:0]
	if !bySlot {
		out = append(out, src)
	}
	if src == dst {
		return out, PathOK, -1
	}
	if len(t.nbrIdx[src]) == 0 {
		return scratch[:0], PathUnknownSrc, src
	}
	root := dst
	if dst >= 0 && int(dst) < len(t.root) {
		root = t.root[dst]
	}
	if src != root {
		tree := w.tree(root)
		if tree == nil || tree.next[src] == -1 {
			return scratch[:0], PathNoRoute, -1
		}
		emit := tree.next
		if bySlot {
			emit = tree.slot
		}
		for cur, hops := src, 0; cur != root; {
			if cur != src && t.hostFlag[cur] {
				return out, PathHostTransit, cur
			}
			nxt := tree.next[cur]
			if nxt < 0 {
				return out, PathBroken, cur
			}
			out = append(out, emit[cur])
			cur = nxt
			if hops++; hops > len(t.Nodes) {
				return out, PathLoop, -1
			}
		}
	}
	if root != dst {
		if bySlot {
			out = append(out, t.lastSlot[dst])
		} else {
			out = append(out, dst)
		}
	}
	return out, PathOK, -1
}
