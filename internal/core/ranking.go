// Package core implements the paper's contribution: the network-aware task
// scheduler for edge computing. It ranks candidate edge servers for a
// querying edge device using INT-derived telemetry — either by estimated
// end-to-end delay (Algorithm 1 of the paper) or by estimated bottleneck
// available bandwidth — and serves ranking queries over the network.
//
// Beside a live probe feed nearly every query is a cold ranking (the state
// changes more often than a device asks twice), so the ranking itself is
// kept to array loads. The walk toward a single-homed host is its switch's
// walk plus one hop, so each walk root — such a switch, or a host that is
// its own root — is walked once over its tree's precomputed hop slots
// (collector.Topology.SlotsInto) and folded once into the estimate's sums
// (pathFold), and each host extends a copy of its root's fold by its last
// hop. The order comes from 16-byte keys, sorted by a quicksort whose
// comparisons are inlined (rankPaths, ranked). A query that asks for the k
// best orders only those: a quickselect moves the k least keys to the front
// and only they are sorted and copied out; the whole ranking is the case
// where k covers every reachable candidate. The paper's option two, the
// candidates in ID order, is the ranking with its sort skipped: the keys
// arrive in host position, and the host list is sorted by name.
//
// The two baselines the paper compares against (Nearest and Random) are
// implemented here too, plus the extensions that kept their place in a
// paired multi-seed trial (DESIGN §8): size-aware transfer-time ranking and
// automatic calibration of the queue→latency conversion factor k.
package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
)

// Metric selects the ranking strategy.
type Metric uint8

const (
	// MetricDelay ranks by estimated one-way network delay (Algorithm 1).
	MetricDelay Metric = iota
	// MetricBandwidth ranks by estimated bottleneck available bandwidth.
	MetricBandwidth
	// MetricNearest is the static closest-node baseline.
	MetricNearest
	// MetricRandom is the random load-balancing baseline.
	MetricRandom
	// MetricTransferTime is the size-aware extension estimating total
	// transfer completion time (delay + data / bottleneck bandwidth).
	MetricTransferTime
)

var metricNames = [...]string{"delay", "bandwidth", "nearest", "random", "transfer-time"}

// NumMetrics is the number of metrics: every Metric ParseMetric returns
// indexes an array of this length.
const NumMetrics = len(metricNames)

func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return "unknown"
}

// ParseMetric converts a string (as used by CLI flags) to a Metric.
func ParseMetric(s string) (Metric, bool) {
	for i, n := range metricNames {
		if n == s {
			return Metric(i), true
		}
	}
	return 0, false
}

// Candidate is one ranked edge server with the scheduler's performance
// estimates, returned to edge devices (the paper's step 4: a list of edge
// servers along with expected bandwidth and latency).
type Candidate struct {
	// Node is the edge server.
	Node netsim.NodeID
	// Delay is the estimated one-way delay from the querying device.
	Delay time.Duration
	// BandwidthBps is the estimated bottleneck available bandwidth.
	BandwidthBps float64
	// Hops is the learned path length in links.
	Hops int
	// Reachable is false when the learned topology has no path; such
	// candidates sort last.
	Reachable bool
}

// Ranker orders the edge servers of a topology snapshot for a querying
// device. Rankings are computed entirely in the snapshot's typed index
// coordinate systems (collector.NodeIdx, collector.Slot and host positions)
// — each walk root's hops walked as metric slots into
// reusable scratch, each estimate a fold of arena slot loads (see
// collector/arena.go), the order from 16-byte keys — and touch strings
// only when forming Candidate.Node (a reference to the snapshot's interned
// host name).
type Ranker interface {
	// Metric identifies the strategy.
	Metric() Metric
	// Rank returns every host of the snapshot but the requester, ordered
	// best-first, reachable ones before unreachable ones (a rank entry serves
	// the recovery filter as a prefix); ties, and the unreachable tail, are
	// in node-ID order. When s asks for option two's ID order, the reachable
	// ones are in node-ID order too: the whole ranking with its sort skipped.
	// from is the querying device's ID, fromIdx its node index (-1 when it
	// has no adjacency) and fromHost its position in the sorted host list
	// (-1 when it is not a known host: nobody is left out); dataBytes is the
	// task's transfer size (0 when unknown). count > 0 says the caller needs
	// only the count best: when more candidates than that are reachable, the
	// ranker may return just the whole ranking's first count entries. The
	// result is private to the caller; s is scratch.
	Rank(topo *collector.Topology, from netsim.NodeID, fromIdx collector.NodeIdx, fromHost int, dataBytes int64, count int, s *rankScratch) []Candidate
}

// rankKey is what a ranking sorts: one reachable candidate's estimate as an
// ascending integer key, and its position in the sorted host list — which
// breaks ties in node-ID order and finds the candidate afterwards.
type rankKey struct {
	key  int64
	host int32
}

// less orders keys by estimate, ties by host position. It is spelled out
// rather than built from cmp.Compare: it is the inner loop of every ranking.
func (a rankKey) less(b rankKey) bool {
	return a.key < b.key || a.key == b.key && a.host < b.host
}

// compare is less as slices.SortFunc takes it.
func (a rankKey) compare(b rankKey) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return int(a.host - b.host)
}

// floatKey maps f to an integer that orders as f does (NaN aside): the bits
// of a non-negative float64 ascend with its value, those of a negative one
// descend, and -0 is folded into +0 first so that equal floats get equal keys.
func floatKey(f float64) int64 {
	b := int64(math.Float64bits(f + 0))
	if b < 0 {
		b ^= math.MaxInt64
	}
	return b
}

// rankScratch holds the reusable buffers of one in-flight ranking
// computation. The slices follow the store-back idiom: helpers return the
// (possibly re-homed) slice and the owner stores it back.
type rankScratch struct {
	slots []collector.Slot // SlotsInto walk scratch
	cands []Candidate      // every host's estimates, by host position
	keys  []rankKey        // the reachable candidates' sort keys
	// roots memoizes, by node index, the fold of the walk to each walk root
	// this ranking has met; an entry is this ranking's iff its gen is gen.
	roots []rootFold
	gen   uint32
	// idOrder asks for option two's ID order: ranked skips its sort.
	idOrder bool
}

// rootFold is one memoized walk to a walk root: whether it reached the root,
// and the fold of its hops.
type rootFold struct {
	gen  uint32
	ok   bool
	fold pathFold
}

var scratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// ComputeRanking computes one fresh best-first ranking against a snapshot:
// every host except from, the scheduler itself included (the paper's
// experimental setup: all nodes execute tasks unless they submitted). The
// returned slice is private to the caller.
func ComputeRanking(topo *collector.Topology, r Ranker, from netsim.NodeID, dataBytes int64) []Candidate {
	return rank(topo, r, from, topo.HostIndex(string(from)), dataBytes, 0, false)
}

// rank is ComputeRanking for a requester at host position fromHost, cut to
// the count best when count > 0, or in ID order when idOrder (Ranker.Rank).
func rank(topo *collector.Topology, r Ranker, from netsim.NodeID, fromHost int, dataBytes int64, count int, idOrder bool) []Candidate {
	fromIdx := collector.NodeIdx(-1)
	if i, ok := topo.NodeIndex(string(from)); ok {
		fromIdx = i
	}
	sc := scratchPool.Get().(*rankScratch)
	sc.idOrder = idOrder
	ranked := r.Rank(topo, from, fromIdx, fromHost, dataBytes, count, sc)
	scratchPool.Put(sc)
	return ranked
}

// begin sizes the scratch for a snapshot of the given host count: one
// candidate per host position (stale until written) and no keys.
func (s *rankScratch) begin(hosts int) {
	s.cands = slices.Grow(s.cands[:0], hosts)[:hosts]
	s.keys = s.keys[:0]
}

// beginRoots readies the root memo for a ranking on a snapshot of n nodes:
// a new generation, so that no entry of an earlier ranking is this one's.
// When the counter wraps, every entry is cleared instead.
func (s *rankScratch) beginRoots(n int) {
	if s.gen++; s.gen == 0 {
		clear(s.roots)
		s.gen = 1
	}
	// Entries beyond the old length are zero (gen 0) or from an earlier
	// generation: neither is current.
	s.roots = slices.Grow(s.roots[:0], n)[:n]
}

// ranked orders a ranker's estimates — cands written at every host position
// but fromHost, a key for each reachable one, appended in ascending host
// position — into a private result: the reachable candidates by ascending
// key, ties by host position (node-ID order, the host list being sorted),
// then the unreachable ones in ID order. The order is total, so the sort need
// not be stable, and the count least keys are one set whatever finds them.
// When count > 0 leaves out some reachable candidate, only the count least
// keys are selected, sorted and gathered; otherwise every key is sorted and
// the whole ranking returned. idOrder (option two) skips selection and sort:
// the whole list, the reachable candidates in host position and so in ID
// order, then the unreachable ones.
func ranked(cands []Candidate, keys []rankKey, fromHost, count int, idOrder bool) []Candidate {
	whole := idOrder || count <= 0 || count >= len(keys)
	n := len(cands)
	if fromHost >= 0 {
		n--
	}
	if !whole {
		selectLeast(keys, count, 2*bits.Len(uint(len(keys))))
		keys, n = keys[:count], count
	}
	if !idOrder {
		sortKeys(keys, 2*bits.Len(uint(len(keys))))
	}
	out := make([]Candidate, 0, n)
	for _, k := range keys {
		out = append(out, cands[k.host])
	}
	if whole {
		for j := range cands {
			if j != fromHost && !cands[j].Reachable {
				out = append(out, cands[j])
			}
		}
	}
	return out
}

// selectLeast moves the k least keys to keys[:k], in no particular order
// (0 < k < len(keys)): a quickselect that partitions around a median of
// three until position k holds the key of rank k. Keys are distinct — no two
// share a host — so every round fixes one pivot. After rounds partitions
// (ranked allows 2·log2 n) the range still open is sorted outright, so
// pivots that keep landing badly cost at most one sort.
func selectLeast(keys []rankKey, k, rounds int) {
	lo, hi := 0, len(keys) // keys[lo:hi] holds position k's key
	for ; hi-lo > 1; rounds-- {
		if rounds == 0 {
			slices.SortFunc(keys[lo:hi], rankKey.compare)
			return
		}
		switch p := lo + partition(keys[lo:hi]); {
		case p < k:
			lo = p + 1
		case p > k:
			hi = p
		default:
			return
		}
	}
}

// sortKeys sorts keys ascending: a quicksort on partition that finishes
// ranges of at most 12 keys by insertion. Like selectLeast it allows rounds
// partitions (ranked allows 2·log2 n) on the way down to any range, and
// sorts a range still open after them with slices.SortFunc, so pivots that
// keep landing badly cost one library sort. The keys are distinct, so the
// order is the one any sort gives. The comparisons here are inlined, where
// slices.SortFunc calls compare through a func value; that call was most of
// a metro ranking's sort. A range already in order is left as it is: keys
// arrive in host order, so where the estimates tie (an idle fabric's
// bandwidths are all its link rate) they are sorted already, and finding
// that out stops at the first inversion otherwise.
func sortKeys(keys []rankKey, rounds int) {
	for len(keys) > 12 && !sorted(keys) {
		if rounds == 0 {
			slices.SortFunc(keys, rankKey.compare)
			return
		}
		rounds--
		p := partition(keys)
		small, large := keys[:p], keys[p+1:]
		if len(small) > len(large) {
			small, large = large, small
		}
		sortKeys(small, rounds) // the smaller side: recursion depth ≤ log2 n
		keys = large
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j].less(keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// sorted reports whether keys ascend.
func sorted(keys []rankKey) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i].less(keys[i-1]) {
			return false
		}
	}
	return true
}

// partition reorders a (len ≥ 2) around the median of its first, middle and
// last keys and returns the pivot's final position: every key before it is
// less, every key after it greater. Each key is swapped into place whether
// or not it is less than the pivot, and only the count of lesser keys
// depends on the comparison, so the loop takes no branch on it: on keys in
// no order that branch is mispredicted every other time, and it took most
// of the time of a metro ranking's sort.
func partition(a []rankKey) int {
	last, mid := len(a)-1, len(a)/2
	if a[mid].less(a[0]) {
		a[0], a[mid] = a[mid], a[0]
	}
	if a[last].less(a[0]) {
		a[0], a[last] = a[last], a[0]
	}
	if a[last].less(a[mid]) {
		a[mid], a[last] = a[last], a[mid]
	}
	a[mid], a[last] = a[last], a[mid]
	pivot, i := a[last], 0
	for j := range a[:last] {
		x := a[j]
		a[j], a[i] = a[i], x // a[i:j] holds the keys not less than the pivot
		if x.less(pivot) {
			i++
		}
	}
	a[i], a[last] = a[last], a[i]
	return i
}

// pathFold is what the path rankers need of a walked path, folded hop by hop
// in walk order: the sum of link delays (FallbackLinkDelay where one is
// unmeasured), the sum of the windowed queue maxima the queue term charges
// — k·ΣQ(h) equals Σk·Q(h) exactly in integers — and the bottleneck of the
// available bandwidth, -1 until a hop is folded. A ranking folds the walk to
// each walk root once and extends a copy by each of the root's hosts' last
// hop; a fold is passed by value, since one behind a pointer handed to the
// rankers' callbacks would escape to the heap.
type pathFold struct {
	links      time.Duration
	queued     int64
	bottleneck float64
	hops       int
}

// step folds one more hop, the one whose metric slot is slot. Its queue
// counts unless it is the first hop and leaves a host: hosts have no
// measured queues, and only a walk's first hop can leave one. The
// bottleneck is folded only when cal is non-nil.
func (f *pathFold) step(topo *collector.Topology, slot collector.Slot, leavesHost bool, cal *Calibration) {
	if d, ok := topo.SlotDelay(slot); ok {
		f.links += d
	} else {
		f.links += FallbackLinkDelay
	}
	q, queued := topo.SlotQueueMax(slot)
	queued = queued && (f.hops > 0 || !leavesHost)
	if queued {
		f.queued += int64(q)
	}
	if cal != nil {
		util := 0.0
		if queued {
			util = cal.Utilization(q)
		}
		if avail := float64(topo.SlotRate(slot)) * (1 - util); f.bottleneck < 0 || avail < f.bottleneck {
			f.bottleneck = avail
		}
	}
	f.hops++
}

// delay is Algorithm 1's estimate, ΣD(l) + k·ΣQ(h).
func (f pathFold) delay(k time.Duration) time.Duration {
	return f.links + time.Duration(f.queued)*k
}

// bandwidth is the bottleneck available bandwidth (0 for no hop).
func (f pathFold) bandwidth() float64 {
	if f.bottleneck < 0 {
		return 0
	}
	return f.bottleneck
}

// rankPaths ranks every host but the requester over the learned paths from
// the requester, cut to the count best when count > 0 (Ranker.Rank). The walk
// toward a host is the walk toward its walk root plus, for a single-homed
// host, its switch's hop to it (collector.Topology.WalkRoot), so each root is
// walked and folded once and each host extends a copy of that fold by its
// last hop. (That holds for every source but the host itself, and the
// requester's own position is skipped.) finish turns one reachable
// candidate's fold into its estimates and returns its sort key; cal is
// non-nil iff it reads the bottleneck. Candidates without a path stay
// unreachable with zero estimates.
func rankPaths(topo *collector.Topology, fromIdx collector.NodeIdx, fromHost, count int, s *rankScratch, cal *Calibration, finish func(c *Candidate, f pathFold) int64) []Candidate {
	s.begin(topo.HostCount())
	s.beginRoots(topo.NodeCount())
	leavesHost := fromIdx >= 0 && topo.IsHostIdx(fromIdx)
	for j := range s.cands {
		if j == fromHost {
			continue
		}
		c := &s.cands[j]
		*c = Candidate{Node: netsim.NodeID(topo.HostName(j))}
		dst := topo.HostNodeIndex(j)
		root, last := topo.WalkRoot(dst)
		if root < 0 {
			continue // no adjacency: no walk reaches it
		}
		m := &s.roots[root]
		if m.gen != s.gen {
			slots, code, _ := topo.SlotsInto(fromIdx, root, s.slots)
			s.slots = slots
			*m = rootFold{gen: s.gen, ok: code == collector.PathOK, fold: pathFold{bottleneck: -1}}
			if m.ok {
				for _, slot := range slots {
					m.fold.step(topo, slot, leavesHost, cal)
				}
			}
		}
		if !m.ok {
			continue
		}
		f := m.fold
		if root != dst {
			f.step(topo, last, leavesHost, cal)
		}
		c.Reachable, c.Hops = true, f.hops
		s.keys = append(s.keys, rankKey{key: finish(c, f), host: int32(j)})
	}
	return ranked(s.cands, s.keys, fromHost, count, s.idOrder)
}

// DefaultK is the paper's queue-occupancy→latency conversion factor: each
// queued packet on a hop contributes k of estimated queueing delay. The
// paper found k = 20 ms sufficient to identify major congestion events.
const DefaultK = 20 * time.Millisecond

// FallbackLinkDelay is assumed for learned links that have no latency
// measurement yet (e.g. before the first probe crosses them).
const FallbackLinkDelay = 10 * time.Millisecond

// DelayRanker implements Algorithm 1: for every candidate edge server it
// sums measured link delays along the learned path and adds k × (windowed
// max queue occupancy) for every hop, then sorts ascending.
type DelayRanker struct {
	// K is the queue→latency conversion factor (DefaultK when zero).
	K time.Duration
}

// Metric implements Ranker.
func (r *DelayRanker) Metric() Metric { return MetricDelay }

// k returns the effective queue→latency conversion factor.
func (r *DelayRanker) k() time.Duration {
	if r.K <= 0 {
		return DefaultK
	}
	return r.K
}

// Rank implements Ranker.
func (r *DelayRanker) Rank(topo *collector.Topology, _ netsim.NodeID, fromIdx collector.NodeIdx, fromHost int, _ int64, count int, s *rankScratch) []Candidate {
	k := r.k()
	return rankPaths(topo, fromIdx, fromHost, count, s, nil, func(c *Candidate, f pathFold) int64 {
		c.Delay = f.delay(k)
		return int64(c.Delay)
	})
}

// BandwidthRanker estimates per-link available bandwidth from the windowed
// max queue occupancy via a queue→utilization calibration, takes the
// bottleneck minimum along the learned path, and sorts descending.
type BandwidthRanker struct {
	// Calibration maps queue occupancy to utilization (DefaultCalibration
	// when nil).
	Calibration *Calibration
}

// Metric implements Ranker.
func (r *BandwidthRanker) Metric() Metric { return MetricBandwidth }

// calibration returns the effective queue→utilization curve.
func (r *BandwidthRanker) calibration() *Calibration {
	if r.Calibration == nil {
		return DefaultCalibration()
	}
	return r.Calibration
}

// Rank implements Ranker.
func (r *BandwidthRanker) Rank(topo *collector.Topology, _ netsim.NodeID, fromIdx collector.NodeIdx, fromHost int, _ int64, count int, s *rankScratch) []Candidate {
	return rankPaths(topo, fromIdx, fromHost, count, s, r.calibration(), func(c *Candidate, f pathFold) int64 {
		c.BandwidthBps = f.bandwidth()
		return floatKey(-c.BandwidthBps) // most bandwidth first
	})
}

// NearestRanker is the paper's Nearest baseline: it ranks candidates by a
// statically precomputed hop count, oblivious to congestion. The paper
// computes nearest nodes ahead of time, so this ranker takes ground-truth
// hop counts at construction and never consults telemetry.
type NearestRanker struct {
	hops map[netsim.NodeID]map[netsim.NodeID]int
}

// NewNearestRanker precomputes hop counts between all pairs of the given
// hosts using the network's installed routes.
func NewNearestRanker(nw *netsim.Network, hosts []netsim.NodeID) (*NearestRanker, error) {
	r := &NearestRanker{hops: make(map[netsim.NodeID]map[netsim.NodeID]int, len(hosts))}
	for _, a := range hosts {
		r.hops[a] = make(map[netsim.NodeID]int, len(hosts))
		for _, b := range hosts {
			if a == b {
				continue
			}
			h, err := nw.HopCount(a, b)
			if err != nil {
				return nil, err
			}
			r.hops[a][b] = h
		}
	}
	return r, nil
}

// Metric implements Ranker.
func (r *NearestRanker) Metric() Metric { return MetricNearest }

// Rank implements Ranker.
func (r *NearestRanker) Rank(topo *collector.Topology, from netsim.NodeID, _ collector.NodeIdx, fromHost int, _ int64, count int, s *rankScratch) []Candidate {
	hops := r.hops[from]
	s.begin(topo.HostCount())
	for j := range s.cands {
		if j == fromHost {
			continue
		}
		node := netsim.NodeID(topo.HostName(j))
		h, ok := hops[node]
		s.cands[j] = Candidate{Node: node, Hops: h, Reachable: ok}
		if ok {
			s.keys = append(s.keys, rankKey{key: int64(h), host: int32(j)})
		}
	}
	return ranked(s.cands, s.keys, fromHost, count, s.idOrder)
}

// RandomRanker is the paper's Random baseline: a uniformly random order for
// load balancing, oblivious to both distance and congestion.
type RandomRanker struct {
	rng *simtime.Rand
}

// NewRandomRanker creates a random ranker with its own deterministic
// sub-stream.
func NewRandomRanker(rng *simtime.Rand) *RandomRanker {
	return &RandomRanker{rng: rng.Stream("random-ranker")}
}

// Metric implements Ranker.
func (r *RandomRanker) Metric() Metric { return MetricRandom }

// Rank implements Ranker. It always draws the whole order: the engine
// caches no draw, so it never asks for fewer.
func (r *RandomRanker) Rank(topo *collector.Topology, _ netsim.NodeID, _ collector.NodeIdx, fromHost int, _ int64, _ int, _ *rankScratch) []Candidate {
	n := topo.HostCount()
	if fromHost >= 0 {
		n--
	}
	out := make([]Candidate, 0, n)
	for _, j := range r.rng.Perm(n) {
		if fromHost >= 0 && j >= fromHost {
			j++ // the j-th host, not counting the requester
		}
		out = append(out, Candidate{Node: netsim.NodeID(topo.HostName(j)), Reachable: true})
	}
	return out
}
