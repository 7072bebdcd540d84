package collector

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"intsched/internal/netsim"
	"intsched/internal/telemetry"
)

// synthFabric is a three-tier fabric taught to a collector by hand-built
// probes: pods of 4 aggregation and 8 top-of-rack switches with 2 hosts a
// rack, joined by 16 cores; every host probes the scheduler, which hangs off
// the first rack. 16 pods is the size of the benchmark's Clos: 208 switches,
// 256 hosts and the scheduler.
type synthFabric struct {
	clk      *fakeClock
	c        *Collector
	probes   []*telemetry.ProbePayload
	interval time.Duration
	next     int
}

func newSynthFabric(pods int) *synthFabric {
	f := &synthFabric{clk: &fakeClock{now: time.Second}, interval: 100 * time.Millisecond}
	f.c = New("sched", f.clk.Now, Config{QueueWindow: 2 * f.interval})
	ports := map[edgeKey]int{}
	used := map[string]int{}
	port := func(dev, nbr string) int {
		k := edgeKey{dev, nbr}
		if _, ok := ports[k]; !ok {
			used[dev]++
			ports[k] = used[dev]
		}
		return ports[k]
	}
	tor := func(pod, i int) string { return fmt.Sprintf("tor%02d-%d", pod, i) }
	agg := func(pod, i int) string { return fmt.Sprintf("agg%02d-%d", pod, i) }
	for pod := 0; pod < pods; pod++ {
		for rack := 0; rack < 8; rack++ {
			for h := 0; h < 2; h++ {
				n := (pod*8+rack)*2 + h
				origin := fmt.Sprintf("h%04d", n)
				a := n % 4
				route := []string{origin, tor(pod, rack), agg(pod, a)}
				if pod != 0 {
					route = append(route, fmt.Sprintf("core%02d", a*4+(n/4)%4), agg(0, a))
				}
				if pod != 0 || rack != 0 {
					route = append(route, tor(0, 0))
				} else {
					route = route[:2] // the scheduler's own rack
				}
				route = append(route, "sched")
				p := &telemetry.ProbePayload{Origin: origin}
				for i := 1; i+1 < len(route); i++ {
					in, out := port(route[i], route[i-1]), port(route[i], route[i+1])
					p.Stack.Append(telemetry.Record{
						Device: route[i], IngressPort: in, EgressPort: out, LinkLatency: time.Millisecond,
						Queues: []telemetry.PortQueue{{Port: in, MaxQueue: n % 7}, {Port: out, MaxQueue: n % 5}},
					})
				}
				f.probes = append(f.probes, p)
			}
		}
	}
	return f
}

// probe ingests the next probe of the rotation, one fleet-wide probing
// interval after the same stream's previous one.
func (f *synthFabric) probe() {
	p := f.probes[f.next%len(f.probes)]
	f.next++
	f.clk.now += f.interval / time.Duration(len(f.probes))
	p.Seq++
	recs := p.Stack.Records
	for i := range recs {
		recs[i].LinkLatency = time.Millisecond + time.Duration(f.next%13)*time.Microsecond
		recs[i].EgressTS = f.clk.now - time.Millisecond
	}
	f.c.HandleProbe(p)
}

// publishCost feeds the fabric at cadence and returns what one Snapshot()
// after one accepted probe allocates, in objects and bytes, with the
// snapshot it ended on.
func (f *synthFabric) publishCost(t *testing.T) (objects, bytes float64, last *Topology) {
	t.Helper()
	for i := 0; i < 4*len(f.probes); i++ {
		f.probe()
	}
	prev := f.c.Snapshot()
	rebuilds := f.c.Stats().StructureRebuilds
	const runs = 64
	var mallocs, total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		f.probe()
		runtime.ReadMemStats(&before)
		last = f.c.Snapshot()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		total += after.TotalAlloc - before.TotalAlloc
		if last == prev || last.Epoch() != prev.Epoch()+1 {
			t.Fatalf("probe %d: epoch %d after %d, same snapshot %v", i, last.Epoch(), prev.Epoch(), last == prev)
		}
		if last.structure != prev.structure || &last.nodes[0] != &prev.nodes[0] || &last.nbrFlat.s[0] != &prev.nbrFlat.s[0] {
			t.Fatalf("probe %d: the snapshot does not share its predecessor's structure", i)
		}
		if &last.slots.s[0] == &prev.slots.s[0] {
			t.Fatalf("probe %d: the snapshot shares its predecessor's slots", i)
		}
		prev = last
	}
	if got := f.c.Stats().StructureRebuilds; got != rebuilds {
		t.Fatalf("%d structure rebuilds on a steady feed", got-rebuilds)
	}
	return float64(mallocs) / runs, float64(total) / runs, last
}

// TestPublishCostIndependentOfFabricSize: republishing after a probe that
// changed a few links' delays and a few dozen queue maxima costs the copy of
// the slot array and a header — the node list, the index and the CSR arrays
// are the previous snapshot's — and the number of allocations does not grow
// with the fabric.
func TestPublishCostIndependentOfFabricSize(t *testing.T) {
	clos := newSynthFabric(16)
	objects, bytes, topo := clos.publishCost(t)
	if n := len(topo.nodes); n < 440 || n > 480 {
		t.Fatalf("the synthetic fabric has %d nodes, want the Clos's ~465", n)
	}
	// The slot array is one large object, which the allocator rounds up to
	// whole 8 KB pages.
	slotBytes := float64(len(topo.slots.s)) * float64(unsafe.Sizeof(edgeMetrics{}))
	if objects > 3 || bytes > slotBytes+8192+512 {
		t.Errorf("one publish allocates %.2f objects, %.0f bytes; want at most 3 and the %.0f bytes of %d slots plus a header",
			objects, bytes, slotBytes, len(topo.slots.s))
	}
	twice, _, topo2 := newSynthFabric(32).publishCost(t)
	if len(topo2.slots.s) < 2*len(topo.slots.s)-64 {
		t.Fatalf("the doubled fabric has %d slots against %d", len(topo2.slots.s), len(topo.slots.s))
	}
	if twice > objects+0.5 {
		t.Errorf("one publish allocates %.2f objects on %d nodes and %.2f on %d", objects, len(topo.nodes), twice, len(topo2.nodes))
	}
	t.Logf("%d nodes, %d slots: %.2f objects, %.0f bytes a publish; %d nodes: %.2f objects",
		len(topo.nodes), len(topo.slots.s), objects, bytes, len(topo2.nodes), twice)
}

// liveSlotsMatchRefill compares the live slot array with a refill of the same
// structure from the state maps. Call it right after Snapshot, which ages the
// state to the clock and leaves a structure in place.
func liveSlotsMatchRefill(c *Collector) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	want := make([]edgeMetrics, len(c.live.s))
	c.refillLocked(indexed[Slot, edgeMetrics]{want}, c.clock())
	for s := range want {
		if c.live.s[s] != want[s] {
			e := s / 2
			u := slices.IndexFunc(c.cur.edgeStart.s, func(start edgePos) bool { return int(start) > e }) - 1
			return fmt.Errorf("live slot %d (edge %s->%s, reverse %v) holds %+v, a refill %+v",
				s, c.cur.nodes[u], c.cur.nodes[c.cur.nbrFlat.s[e]], s%2 == 1, c.live.s[s], want[s])
		}
	}
	return nil
}

// TestLiveSlotsEqualRefill: after every operation of the reference harness's
// generator the slot array ingest kept current equals one filled from the
// maps — a missed forward or mirror write shows here by slot, before it has
// to surface through a by-name accessor of some later snapshot.
func TestLiveSlotsEqualRefill(t *testing.T) {
	for seed := int64(101); seed <= 124; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			QueueWindow:  []time.Duration{40, 200}[rng.Intn(2)] * time.Millisecond,
			AdjacencyTTL: []time.Duration{0, 330 * time.Millisecond, NoAdjacencyAging}[rng.Intn(3)],
		}
		ops := genOps(rng, cfg.QueueWindow, 300)
		clk := &fakeClock{now: time.Second}
		c := New("sched", clk.Now, cfg)
		reused := 0
		for step, op := range ops {
			switch op.kind {
			case opStep:
				clk.now += op.d
			case opStepToQueue, opStepToAdj:
				// The collector's own idea of its next expiry, +0 or +1 ns.
				if at := c.Snapshot().expireAt; at != neverExpires {
					clk.now = max(clk.now, at+op.d)
				}
			case opProbe:
				c.HandleProbe(op.payload(clk.now))
			case opWindow:
				c.SetQueueWindow(op.d)
			case opRate:
				c.SetLinkRate(netsim.NodeID(op.a), netsim.NodeID(op.b), op.rate)
			}
			rebuilds := c.Stats().StructureRebuilds
			c.Snapshot()
			if c.Stats().StructureRebuilds == rebuilds {
				reused++
			}
			if err := liveSlotsMatchRefill(c); err != nil {
				t.Fatalf("seed %d after step %d (%v) at %v: %v", seed, step, op, clk.now, err)
			}
		}
		if reused < len(ops)/4 {
			t.Fatalf("seed %d: only %d of %d steps kept the structure; the live writes went untested", seed, reused, len(ops))
		}
	}
}

// TestStaleAdjacencyBoundKeepsSnapshot: a snapshot's expireAt may be the
// adjacency deadline as of the last scan, which later confirmations
// outlived. Reading past it finds nothing aged: same snapshot, same epoch.
func TestStaleAdjacencyBoundKeepsSnapshot(t *testing.T) {
	clk := &fakeClock{now: time.Second}
	c := New("sched", clk.Now, Config{QueueWindow: 100 * time.Millisecond, AdjacencyTTL: time.Second})
	probe := func(seq uint64) {
		c.HandleProbe(probeFrom("n1", seq, time.Millisecond, devSpec{id: "s1", in: 0, out: 1, egressTS: clk.now}))
	}
	probe(1)
	first := c.Snapshot() // scans: every edge stands until 2s-1ns
	clk.now += 600 * time.Millisecond
	probe(2) // confirms every edge: they now stand until 2.6s-1ns
	held := c.Snapshot()
	if held == first || held.expireAt != first.expireAt {
		t.Fatalf("setup: expireAt %v after %v", held.expireAt, first.expireAt)
	}
	clk.now = 2*time.Second + 100*time.Millisecond
	if got := c.Snapshot(); got != held || c.Epoch() != held.Epoch() {
		t.Fatalf("nothing aged out, yet the snapshot or the epoch (%d -> %d) moved", held.Epoch(), c.Epoch())
	}
	clk.now = 2*time.Second + 600*time.Millisecond
	if got := c.Snapshot(); got == held || got.Epoch() != held.Epoch()+1 || len(got.nodes) != 0 {
		t.Fatalf("at the edges' deadline: epoch %d after %d, nodes %v", got.Epoch(), held.Epoch(), got.nodes)
	}
}

// TestHeldSnapshotUnchangedByIngest: a published snapshot is never written
// again. One is held and deep-copied, the collector then ingests 200 probes —
// with a reroute and an eviction among them, so the structure is rebuilt too
// — while four goroutines read it and every newer snapshot, and the held one
// still equals its copy. Under -race a write into a published array is a
// reported race with those readers.
func TestHeldSnapshotUnchangedByIngest(t *testing.T) {
	var nowNs atomic.Int64
	nowNs.Store(int64(time.Second))
	now := func() time.Duration { return time.Duration(nowNs.Load()) }
	c := New("sched", now, Config{QueueWindow: 50 * time.Millisecond, AdjacencyTTL: 120 * time.Millisecond})
	via := func(origin string, seq uint64, mid string, lat time.Duration) *telemetry.ProbePayload {
		return probeFrom(origin, seq, lat,
			devSpec{id: "s1", in: 0, out: 1, queues: map[int]int{1: int(seq % 9), 2: 3}, egressTS: now()},
			devSpec{id: mid, in: 0, out: 1, queues: map[int]int{1: int(seq % 4)}, egressTS: now()},
			devSpec{id: "s4", in: 0, out: 2, queues: map[int]int{2: 1}, egressTS: now()})
	}
	c.HandleProbe(via("n1", 1, "s2", 4*time.Millisecond))
	c.HandleProbe(via("n2", 1, "s3", 6*time.Millisecond))
	held := c.Snapshot()
	type contents struct {
		nodes, hosts []string
		hostFlag     []bool
		edgeStart    []edgePos
		nbrFlat      []NodeIdx
		egress       []int
		slots        []edgeMetrics
	}
	copyOf := func(t *Topology) contents {
		return contents{slices.Clone(t.nodes), slices.Clone(t.hostList), slices.Clone(t.hostFlag.s),
			slices.Clone(t.edgeStart.s), slices.Clone(t.nbrFlat.s), slices.Clone(t.egress.s), slices.Clone(t.slots.s)}
	}
	want := copyOf(held)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, topo := range []*Topology{held, c.Snapshot()} {
					for s := range topo.slots.s {
						topo.SlotDelay(Slot(s))
						topo.SlotQueueMax(Slot(s))
					}
					for u := range topo.nodes {
						topo.Neighbors(topo.nodes[u])
					}
				}
			}
		}()
	}
	evictions := c.Stats().AdjacencyEvictions
	for i := uint64(2); i < 202; i++ {
		nowNs.Add(int64(2 * time.Millisecond))
		// n1 moves from s2 to s3 a quarter of the way in; s2's edges are
		// backdated and then age out while the feed continues.
		mid := "s2"
		if i >= 50 {
			mid = "s3"
		}
		c.HandleProbe(via("n1", i, mid, time.Duration(3+i%5)*time.Millisecond))
		c.HandleProbe(via("n2", i, "s3", time.Duration(5+i%3)*time.Millisecond))
		if i%7 == 0 {
			c.Snapshot()
		}
	}
	close(stop)
	wg.Wait()

	st := c.Stats()
	if st.PathRemaps == 0 || st.AdjacencyEvictions == evictions {
		t.Fatalf("the feed had %d remaps and %d evictions; want both", st.PathRemaps, st.AdjacencyEvictions-evictions)
	}
	if slices.Contains(c.Snapshot().nodes, "s2") || !slices.Contains(held.nodes, "s2") {
		t.Fatal("s2 should have left the current snapshot and stayed in the held one")
	}
	got := copyOf(held)
	if !slices.Equal(got.nodes, want.nodes) || !slices.Equal(got.hosts, want.hosts) || !slices.Equal(got.hostFlag, want.hostFlag) ||
		!slices.Equal(got.edgeStart, want.edgeStart) || !slices.Equal(got.nbrFlat, want.nbrFlat) ||
		!slices.Equal(got.egress, want.egress) || !slices.Equal(got.slots, want.slots) {
		t.Fatalf("the held snapshot changed under ingest:\n got %+v\nwant %+v", got, want)
	}
}
