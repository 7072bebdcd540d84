package main

import (
	"fmt"
	"time"

	"intsched/internal/collector"
	"intsched/internal/core"
	"intsched/internal/experiment"
	"intsched/internal/netsim"
	"intsched/internal/telemetry"
)

// ingestMetro feeds the metro fabric's probe trace to a collector in
// process, on one goroutine and a virtual clock: decode and ingest a round
// of probes, then take a snapshot and rank on it. Collector ingest and
// telemetry decoding do nearly all of the work, ranking a little, the wire
// and the daemon none. An operation is one probe, decoded and ingested.
type ingestMetro struct {
	seed    int64
	size    sizes
	seconds float64

	trace *probeTrace
	now   time.Duration // the collector's clock: the current probe's arrival
	coll  *collector.Collector
	delay core.Ranker

	next     int // next trace round to ingest
	payload  telemetry.ProbePayload
	sample   []uint32
	walls    []float64 // per round: seconds from first decode to last ranking
	rankable []uint32  // per window round: last probe's decode start → snapshot holds it

	ranked, emptyRankings, unreachable int
	lastHosts                          int
}

func (m *ingestMetro) prepare() error {
	spec, err := experiment.MetroSpec(experiment.MetroConfig{Seed: m.seed, Regions: m.size.metroRegions})
	if err != nil {
		return err
	}
	rounds := m.size.ingestSetupRounds + int(m.seconds*float64(m.size.ingestRoundsPerS)) + 1
	m.trace, err = generateTrace(spec, rounds)
	if err != nil {
		return err
	}
	m.delay = &core.DelayRanker{}
	m.sample = make([]uint32, 0, m.trace.probes())
	m.walls = make([]float64, 0, rounds)
	m.rankable = make([]uint32, 0, rounds)
	return nil
}

func (m *ingestMetro) clock() time.Duration { return m.now }

// ingest decodes probe i into the reused payload and hands it to the
// collector at its arrival time.
func (m *ingestMetro) ingest(i int, tr *tracer) error {
	m.now = time.Duration(m.trace.at[i])
	id := tr.begin(callDecode, i)
	err := telemetry.UnmarshalProbeInto(&m.payload, m.trace.payload(i))
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe %d: %w", i, err)
	}
	id = tr.begin(callIngest, i)
	m.coll.HandleProbe(&m.payload)
	tr.end(id)
	return nil
}

func (m *ingestMetro) build() (time.Duration, error) {
	t0 := time.Now()
	m.coll = collector.New(netsim.NodeID(m.trace.sched), m.clock, collector.Config{QueueWindow: 2 * probeInterval})
	_, hi := m.trace.round(m.size.ingestSetupRounds - 1)
	for i := 0; i < hi; i++ {
		if err := m.ingest(i, nil); err != nil {
			return 0, err
		}
	}
	m.lastHosts = m.coll.Snapshot().HostCount()
	m.next = m.size.ingestSetupRounds
	return time.Since(t0), nil
}

func (m *ingestMetro) warm() error { return nil }

// measure ingests whole rounds until d has passed or the trace ends.
func (m *ingestMetro) measure(d time.Duration, tr *tracer) (window, error) {
	var w window
	m.sample = m.sample[:0]
	m.walls = m.walls[:0]
	origins := m.trace.origins
	start := time.Now()
	for ; m.next < m.trace.rounds && time.Since(start) < d; m.next++ {
		roundStart := time.Now()
		lo, hi := m.trace.round(m.next)
		var t0 time.Time
		for i := lo; i < hi; i++ {
			t0 = time.Now()
			if err := m.ingest(i, tr); err != nil {
				return w, err
			}
			m.sample = append(m.sample, clampNs(time.Since(t0)))
		}
		id := tr.begin(callSnapshot, m.next)
		topo := m.coll.Snapshot()
		tr.end(id)
		m.rankable = append(m.rankable, clampNs(time.Since(t0)))
		m.lastHosts = topo.HostCount()
		for q := 0; q < m.size.ranksPerRound; q++ {
			from := origins[(m.next*m.size.ranksPerRound+q)%len(origins)]
			id := tr.begin(callRank, m.next)
			ranked := core.ComputeRanking(topo, m.delay, netsim.NodeID(from), 0)
			tr.end(id)
			m.ranked++
			if len(ranked) == 0 {
				m.emptyRankings++
			}
			for i := range ranked {
				if !ranked[i].Reachable {
					m.unreachable++
				}
			}
		}
		m.walls = append(m.walls, time.Since(roundStart).Seconds())
	}
	w.elapsed = time.Since(start)
	w.wall, w.repeats = w.elapsed, 1
	w.ops = float64(len(m.sample))
	w.attempted = len(m.sample)
	w.samples = m.sample
	w.sliceOps, w.sliceWall = m.trace.perRound(), m.walls
	return w, nil
}

func (m *ingestMetro) verify(r *report) {
	st := m.coll.Stats()
	r.check("no probe out of order", st.ProbesOutOfOrder == 0, 0, st.ProbesOutOfOrder)
	r.check("no path remapped", st.PathRemaps == 0, 0, st.PathRemaps)
	wantHosts := m.trace.perRound() + 1
	r.check("snapshot holds every host", m.lastHosts == wantHosts, wantHosts, m.lastHosts)
	r.check("rankings computed", m.ranked > 0, "> 0", m.ranked)
	r.check("no ranking empty", m.emptyRankings == 0, 0, m.emptyRankings)
	r.check("every candidate reachable", m.unreachable == 0, 0, m.unreachable)
}

func (m *ingestMetro) layers(r *report, _ summary) error {
	sortSamples(m.rankable)
	r.set("collector.rankable_p50_us", percentile(m.rankable, 50)/1e3, len(m.rankable))
	return nil
}

func (m *ingestMetro) fixture() (*probeTrace, error) { return m.trace, nil }

func (m *ingestMetro) close() {}
