package collector

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// structure is the part of a snapshot that changes only when the adjacency or
// the host set does: the sorted node and host lists and every index array
// built over them. It is immutable once built, and successive snapshots share
// one structure (and its backing arrays) until a probe changes a port's
// neighbour, a host appears, an edge ages out or the queue window is reset
// (rebuildLocked).
type structure struct {
	// Nodes lists every known node ID (hosts and switches), sorted; its
	// index order is the coordinate system of nbrIdx, hostFlag, and the
	// path trees (index order == lexicographic order).
	Nodes []string
	// nodeIndex maps node ID -> index in Nodes.
	nodeIndex map[string]NodeIdx
	// nbrIdx maps node index -> ascending neighbor indices (equivalently:
	// lexicographically sorted neighbors).
	nbrIdx indexed[NodeIdx, []NodeIdx]
	// hostFlag marks which node indices are hosts.
	hostFlag indexed[NodeIdx, bool]
	// hostList caches the sorted host IDs (Hosts returns a copy). It can
	// include hosts with no current adjacency (absent from Nodes).
	hostList []string
	// hostIdx maps hostList positions to node indices (-1 for hosts with
	// no current adjacency).
	hostIdx []NodeIdx

	// CSR form of the adjacency (see arena.go): nbrFlat is the
	// concatenation of the nbrIdx rows (which re-alias it),
	// edgeStart[i]..edgeStart[i+1] spans node i's row, and egress is the
	// egress port behind each CSR edge (nil for hand-crafted topologies).
	edgeStart indexed[NodeIdx, edgePos]
	nbrFlat   indexed[edgePos, NodeIdx]
	egress    indexed[edgePos, int]

	// root is the node whose tree walks toward node i follow: i itself,
	// except for a single-homed host (its neighbour row is exactly one
	// switch e), whose walks follow e's tree and then take the hop e->i,
	// held at lastSlot (DirSlot(e, i); -1 for every other node). See spt.go.
	root     indexed[NodeIdx, NodeIdx]
	lastSlot indexed[NodeIdx, Slot]

	// seq versions the adjacency structure for incremental
	// shortest-path-tree maintenance (see spt.go).
	seq uint64
}

// Topology is an immutable snapshot of the collector's learned network view,
// used by the ranking algorithms. All lookups are against the snapshot, so a
// ranking pass sees one consistent picture. Snapshots are epoch-versioned
// and shared: the collector returns the same *Topology pointer to every
// caller until its state actually changes, so snapshots must be safe for
// concurrent readers.
//
// A Topology is a shared structure — the sorted node list, the host index and
// the neighbor index arrays the path trees run on — plus its own copy of the
// per-direction metric slots (arena.go) as they stood at its epoch. The
// string-keyed accessors below are thin views over that index, kept for
// tests, examples and debugging. The only internal mutability is the
// shortest-path tree state, which is guarded by its own locks (the shared
// incremental store, or the private scratch memo for superseded snapshots).
type Topology struct {
	*structure

	// slots holds per-direction metrics at 2e (forward) and 2e+1 (reverse)
	// of CSR edge e (see arena.go).
	slots indexed[Slot, edgeMetrics]
	// defaultRate is the assumed capacity of unconfigured links.
	defaultRate int64
	// TakenAt is the time the snapshot was published (not the Snapshot()
	// call that returned it).
	TakenAt time.Duration
	// epoch is the collector epoch the snapshot was published at — strictly
	// increasing across any state change, which is what downstream
	// epoch-keyed caches invalidate on. expireAt is the last instant the
	// snapshot is current without a new probe: the earliest queue-report
	// expiry, or a lower bound on the earliest adjacency deadline if that
	// comes first (neverExpires if neither exists).
	epoch    uint64
	expireAt time.Duration

	// store is the collector's shortest-path-tree store (nil for
	// hand-crafted topologies).
	store *sptStore
	// scratch memoizes per-destination trees privately when store is nil
	// or has advanced past seq.
	scratchMu sync.Mutex
	scratch   indexed[NodeIdx, *destTree]
}

// Epoch returns the collector epoch this snapshot was published at. Two
// snapshots with equal epochs are the same object; ranking results computed
// from a snapshot stay valid exactly while the collector's epoch equals the
// snapshot's.
func (t *Topology) Epoch() uint64 { return t.epoch }

// IsHost reports whether id is a known host. Nodes in the adjacency
// answer from the flat host-flag array; hosts with no current adjacency
// (absent from Nodes) fall back to the sorted host list.
func (t *Topology) IsHost(id string) bool {
	if i, ok := t.nodeIndex[id]; ok {
		return t.hostFlag.at(i)
	}
	return containsSorted(t.hostList, id)
}

// Hosts returns all known hosts, sorted.
func (t *Topology) Hosts() []string {
	out := make([]string, len(t.hostList))
	copy(out, t.hostList)
	return out
}

// Neighbors returns the sorted neighbors of id.
func (t *Topology) Neighbors(id string) []string {
	i, ok := t.nodeIndex[id]
	if !ok {
		return nil
	}
	out := make([]string, len(t.nbrIdx.at(i)))
	for j, nb := range t.nbrIdx.at(i) {
		out[j] = t.Nodes[nb]
	}
	return out
}

// slotOf resolves the metric slot of the directed pair from->to by name
// (-1 when either node is unknown or the pair is adjacent in neither
// direction).
func (t *Topology) slotOf(from, to string) Slot {
	i, ok := t.nodeIndex[from]
	j, ok2 := t.nodeIndex[to]
	if !ok || !ok2 {
		return -1
	}
	return t.DirSlot(i, j)
}

// LinkDelay returns the latency estimate for the directed link from->to.
// Links never measured report ok=false.
func (t *Topology) LinkDelay(from, to string) (time.Duration, bool) {
	return t.SlotDelay(t.slotOf(from, to))
}

// LinkRate returns the assumed capacity of the directed link from->to.
func (t *Topology) LinkRate(from, to string) int64 {
	return t.SlotRate(t.slotOf(from, to))
}

// QueueMax returns the windowed maximum queue occupancy of the egress port
// on from feeding the link from->to. The boolean reports whether the port
// had an in-window report.
func (t *Topology) QueueMax(from, to string) (int, bool) {
	return t.SlotQueueMax(t.slotOf(from, to))
}

// Path returns the hop sequence (including endpoints) from src to dst along
// BFS shortest paths, by walking the per-destination tree (incrementally
// maintained across snapshots; see spt.go). Hosts never forward transit
// traffic; a malformed tree that would route through a host mid-path (or
// reference an unknown node) yields a defensive error instead of looping.
func (t *Topology) Path(src, dst string) ([]string, error) {
	if src == dst {
		return []string{src}, nil
	}
	isrc, ok := t.nodeIndex[src]
	if !ok {
		return nil, fmt.Errorf("collector: unknown node %q in learned topology", src)
	}
	idst, ok := t.nodeIndex[dst]
	if !ok {
		idst = -1
	}
	p, code, at := t.PathInto(isrc, idst, nil)
	switch code {
	case PathOK:
		path := make([]string, len(p))
		for i, n := range p {
			path[i] = t.Nodes[n]
		}
		return path, nil
	case PathUnknownSrc:
		return nil, fmt.Errorf("collector: unknown node %q in learned topology", src)
	case PathNoRoute:
		return nil, fmt.Errorf("collector: no learned path from %q to %q", src, dst)
	case PathHostTransit:
		return nil, fmt.Errorf("collector: learned path from %q to %q transits host %q (hosts do not forward)", src, dst, t.Nodes[at])
	case PathBroken:
		return nil, fmt.Errorf("collector: learned path from %q to %q breaks at unknown node %q", src, dst, t.Nodes[at])
	default:
		return nil, fmt.Errorf("collector: path loop from %q to %q", src, dst)
	}
}

// HopCount returns the number of links on the learned path src->dst.
func (t *Topology) HopCount(src, dst string) (int, error) {
	p, err := t.Path(src, dst)
	if err != nil {
		return 0, err
	}
	return len(p) - 1, nil
}

// containsSorted reports whether sorted xs contains x.
func containsSorted(xs []string, x string) bool {
	i := sort.SearchStrings(xs, x)
	return i < len(xs) && xs[i] == x
}
