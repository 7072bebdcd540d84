package main

import (
	"fmt"
	"net"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"intsched/internal/collector"
	"intsched/internal/experiment"
	"intsched/internal/live"
	"intsched/internal/telemetry"
	"intsched/internal/wire"
)

const (
	// feedBurst is the most datagrams the feeder sends without sleeping, so
	// that running late never turns into a socket-buffer burst.
	feedBurst      = 16
	feedBurstPause = 200 * time.Microsecond
	// A feed's timestamps are written ahead of its first datagram, by
	// stampLead plus stampPerProbe for every probe to stamp (about twice
	// what stamping costs on the builder's host, so the feed starts on time).
	stampLead     = 20 * time.Millisecond
	stampPerProbe = 5 * time.Microsecond
	queryTimeout  = 5 * time.Second
	// minDelivery is the share of fed probes the daemon must receive for a
	// feed to count. On one P a stall of the host longer than the socket
	// buffer's 80 ms of feed drops datagrams (1.3 % of a window was seen);
	// that thins the epochs a little. A feed that loses a tenth measures
	// something else.
	minDelivery = 0.9
	// spareRounds follow the window in the trace: one refreshes every
	// stream, one supplies single probes for cold-answer samples.
	spareRounds = 2
)

// wireClos queries a live collector daemon over loopback TCP, one
// connection per query as live.Query does, after the Clos fabric's probes
// were fed to it over UDP.
//
// Quiet: the feed stops before the window, so every query hits the rank
// cache and dial, two JSON frames and the kernel are nearly all of its
// cost. Only a wire change can show here.
//
// Churn: a feeder replays the trace at the paper's cadence beside the
// client, so nearly every query meets a new epoch and pays a snapshot
// merge and a cold ranking. Collector and ranking changes show here; the
// wire is a few percent.
//
// An operation is one query.
type wireClos struct {
	seed    int64
	size    sizes
	seconds float64
	churn   bool

	trace *probeTrace
	// dgram holds the overlay datagram of every probe, re-stamped before
	// each feed; datagram i is dgram[dgOff[i]:dgOff[i+1]].
	dgram   []byte
	dgOff   []uint32
	payload telemetry.ProbePayload
	enc     []byte

	d    *live.CollectorDaemon
	udp  *net.UDPConn
	next int // next trace round to feed
	q    int // queries issued; drives the device and metric rotation

	sample []uint32

	// observations over the run
	fed, received      uint64 // probes fed and received during windows
	lateMax            time.Duration
	hits, lookups      uint64 // rank cache, during windows
	parityChecked      int
	firstFailure       string
	drain, firstPass   time.Duration // of the fastest build
	fastestBuild       time.Duration
	setupQueriesFailed int
}

func (w *wireClos) prepare() error {
	spec, err := experiment.ClosSpec(experiment.ClosConfig{Seed: w.seed, Pods: w.size.closPods})
	if err != nil {
		return err
	}
	rounds := w.size.wireSetupRounds + spareRounds
	if w.churn {
		rounds += int(w.seconds*float64(time.Second)/float64(probeInterval)) + 1
	}
	w.trace, err = generateTrace(spec, rounds)
	if err != nil {
		return err
	}
	n := w.trace.probes()
	w.dgOff = make([]uint32, 1, n+1)
	w.dgram = make([]byte, 0, len(w.trace.arena)+n*(32+len(w.trace.sched)+16))
	for i := 0; i < n; i++ {
		b, err := w.datagram(i, 0)
		if err != nil {
			return err
		}
		w.dgram = append(w.dgram, b...)
		w.dgOff = append(w.dgOff, uint32(len(w.dgram)))
	}
	w.sample = make([]uint32, 0, int(w.seconds*100_000)+1024)
	return nil
}

// datagram encodes probe i as the overlay datagram a probe agent's last-hop
// switch would deliver, with every timestamp moved by shift.
func (w *wireClos) datagram(i int, shift time.Duration) ([]byte, error) {
	if err := telemetry.UnmarshalProbeInto(&w.payload, w.trace.payload(i)); err != nil {
		return nil, err
	}
	w.payload.SentAt += shift
	recs := w.payload.Stack.Records
	for j := range recs {
		if recs[j].EgressTS > 0 {
			recs[j].EgressTS += shift
		}
	}
	enc, err := telemetry.AppendProbe(w.enc[:0], &w.payload)
	w.enc = enc
	if err != nil {
		return nil, err
	}
	dg := wire.Datagram{
		Kind:     wire.KindProbe,
		TTL:      wire.DefaultTTL,
		Src:      w.payload.Origin,
		Dst:      w.trace.sched,
		SentAtNs: int64(w.payload.SentAt),
		Payload:  enc,
	}
	return dg.Marshal()
}

// stamp rewrites the datagrams of rounds [lo, hi) so that the trace's
// simulated clock reads as wall-clock time for a feed starting at start,
// the way live probe agents and switches stamp UnixNano times.
func (w *wireClos) stamp(lo, hi int, start time.Time) error {
	first, _ := w.trace.round(lo)
	_, end := w.trace.round(hi - 1)
	shift := time.Duration(start.UnixNano() - w.trace.at[first])
	for i := first; i < end; i++ {
		b, err := w.datagram(i, shift)
		if err != nil {
			return err
		}
		if n := copy(w.dgram[w.dgOff[i]:w.dgOff[i+1]], b); n != len(b) {
			return fmt.Errorf("probe %d: stamped datagram is %d bytes, slot holds %d", i, len(b), n)
		}
	}
	return nil
}

// feed sends the datagrams of rounds [lo, hi) at their trace spacing,
// beginning at start. It reports how many it sent and how late the latest
// one left.
func (w *wireClos) feed(lo, hi int, start time.Time, tr *tracer) (sent int, lateMax time.Duration, err error) {
	first, _ := w.trace.round(lo)
	_, end := w.trace.round(hi - 1)
	at0 := w.trace.at[first]
	for i := first; i < end; {
		due := start.Add(time.Duration(w.trace.at[i] - at0))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		now := time.Now()
		burst := 0
		for ; i < end && burst < feedBurst; i++ {
			due := start.Add(time.Duration(w.trace.at[i] - at0))
			if due.After(now) {
				break
			}
			if late := now.Sub(due); late > lateMax {
				lateMax = late
			}
			id := tr.begin(callUDPWrite, i)
			_, err := w.udp.Write(w.dgram[w.dgOff[i]:w.dgOff[i+1]])
			tr.end(id)
			if err != nil {
				return sent, lateMax, err
			}
			sent++
			burst++
		}
		if burst == feedBurst {
			time.Sleep(feedBurstPause)
		}
	}
	return sent, lateMax, nil
}

// awaitReceived sleeps until the daemon has counted want probes or the
// timeout passes, and reports how long it waited.
func (w *wireClos) awaitReceived(want uint64, timeout time.Duration) time.Duration {
	t0 := time.Now()
	for w.d.Stats().ProbesReceived < want && time.Since(t0) < timeout {
		time.Sleep(time.Millisecond)
	}
	return time.Since(t0)
}

func (w *wireClos) closeSystem() {
	if w.udp != nil {
		w.udp.Close()
		w.udp = nil
	}
	if w.d != nil {
		w.d.Close()
		w.d = nil
	}
}

// build measures time-to-ready after a scheduler restart: start the daemon,
// receive the fleet's first rounds at the probing cadence, then answer
// every device once per metric. The feed makes it schedule-bound by design;
// its processor-bound parts are layer metrics.
func (w *wireClos) build() (time.Duration, error) {
	w.closeSystem()
	rounds := w.size.wireSetupRounds
	start := time.Now().Add(stampLead + time.Duration(rounds*w.trace.perRound())*stampPerProbe)
	if err := w.stamp(0, rounds, start); err != nil {
		return 0, err
	}
	time.Sleep(time.Until(start))

	t0 := time.Now()
	cfg := live.DaemonConfig{}
	if !w.churn {
		// The feed stops before the window: learned edges must outlive it.
		cfg.AdjacencyTTL = collector.NoAdjacencyAging
	}
	d, err := live.NewCollectorDaemon(w.trace.sched, cfg)
	if err != nil {
		return 0, err
	}
	w.d = d
	addr, err := net.ResolveUDPAddr("udp", d.UDPAddr())
	if err != nil {
		return 0, err
	}
	if w.udp, err = net.DialUDP("udp", nil, addr); err != nil {
		return 0, err
	}
	sent, _, err := w.feed(0, rounds, start, nil)
	if err != nil {
		return 0, err
	}
	drain := w.awaitReceived(uint64(sent), time.Second)
	if got := d.Stats().ProbesReceived; float64(got) < minDelivery*float64(sent) {
		return 0, fmt.Errorf("set-up: daemon received %d of %d probes", got, sent)
	}
	passStart := time.Now()
	failed := 0
	for _, from := range w.trace.origins {
		for _, metric := range queryMetrics {
			req := wire.QueryRequest{From: from, Metric: metric, Count: w.size.candidates, Sorted: true}
			if _, err := live.Query(d.QueryAddr(), &req, queryTimeout); err != nil {
				failed++
			}
		}
	}
	total := time.Since(t0)
	w.setupQueriesFailed += failed
	w.next = rounds
	if w.fastestBuild == 0 || total < w.fastestBuild {
		w.fastestBuild, w.drain, w.firstPass = total, drain, time.Since(passStart)
	}
	return total, nil
}

var queryMetrics = []string{"delay", "bandwidth"}

// portRange is the number of ephemeral ports the kernel hands to outgoing
// connections.
func portRange() int {
	data, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range")
	var lo, hi int
	if err == nil {
		if _, err := fmt.Sscan(string(data), &lo, &hi); err == nil && hi > lo {
			return hi - lo + 1
		}
	}
	return 30_000
}

// warm brings the quiet daemon to its steady state. It then runs untimed
// queries until the ephemeral port range has wrapped, so that every timed
// query pays the steady-state cost of reusing a port in TIME_WAIT whatever
// ran on this host in the last minute. Only the quiet window is short
// enough per query for that cost to show.
func (w *wireClos) warm() error {
	if w.churn {
		return nil
	}
	// The last queue reports age out of their window after the feed stops,
	// and each expiry is a new epoch; only then is the telemetry frozen.
	time.Sleep(2 * collector.DefaultQueueWindow)
	// At least one query per device and metric, so the rank cache holds
	// every answer of the frozen epoch.
	n := max(int(w.size.prerollFactor*float64(portRange())), len(w.trace.origins)*len(queryMetrics))
	for i := 0; i < n; i++ {
		if w.query(nil) {
			return fmt.Errorf("pre-roll query %d: %s", i, w.firstFailure)
		}
	}
	w.q, w.firstFailure = 0, ""
	return nil
}

// query sends the next query of the rotation, checks the answer and
// reports whether it failed.
func (w *wireClos) query(tr *tracer) (failed bool) {
	origins := w.trace.origins
	req := wire.QueryRequest{
		From:   origins[w.q%len(origins)],
		Metric: queryMetrics[w.q%len(queryMetrics)],
		Count:  w.size.candidates,
		Sorted: true,
	}
	id := tr.begin(callQuery, w.q)
	resp, err := live.Query(w.d.QueryAddr(), &req, queryTimeout)
	tr.end(id)
	w.q++
	problem := ""
	if err != nil {
		problem = err.Error()
	} else {
		problem = w.checkAnswer(&req, resp)
	}
	if problem != "" && w.firstFailure == "" {
		w.firstFailure = fmt.Sprintf("query %d (%s from %s): %s", w.q-1, req.Metric, req.From, problem)
	}
	return problem != ""
}

// checkAnswer returns what is wrong with an answer, or "".
func (w *wireClos) checkAnswer(req *wire.QueryRequest, resp *wire.QueryResponse) string {
	cs := resp.Candidates
	if len(cs) != w.size.candidates {
		return fmt.Sprintf("want %d candidates, got %d", w.size.candidates, len(cs))
	}
	for i, c := range cs {
		if c.Node != w.trace.sched && !w.isOrigin(c.Node) {
			return fmt.Sprintf("candidate %q is not a host of the fabric", c.Node)
		}
		if !w.churn && !c.Reachable {
			return fmt.Sprintf("candidate %s unreachable on a quiet fabric", c.Node)
		}
		if i == 0 || !c.Reachable || !cs[i-1].Reachable {
			continue
		}
		if req.Metric == "delay" && c.DelayNs < cs[i-1].DelayNs {
			return fmt.Sprintf("delay ranking out of order at %d", i)
		}
		if req.Metric == "bandwidth" && c.BandwidthBps > cs[i-1].BandwidthBps {
			return fmt.Sprintf("bandwidth ranking out of order at %d", i)
		}
	}
	if !w.churn && w.q%w.size.parityEvery == 0 {
		// The quiet fabric's state is frozen, so the daemon must give the
		// same answer in process as over the wire.
		w.parityChecked++
		local := w.d.Answer(req)
		if len(local.Candidates) != len(cs) {
			return fmt.Sprintf("in-process answer has %d candidates, wire answer %d", len(local.Candidates), len(cs))
		}
		for i := range cs {
			if cs[i] != local.Candidates[i] {
				return fmt.Sprintf("candidate %d differs: wire %+v, in-process %+v", i, cs[i], local.Candidates[i])
			}
		}
	}
	return ""
}

// isOrigin reports whether id is one of the fabric's probing hosts.
func (w *wireClos) isOrigin(id string) bool {
	_, found := slices.BinarySearch(w.trace.origins, id) // origins is sorted
	return found
}

// sliceQueries is how many consecutive queries make one slice of the
// window: a twentieth of a second or so of the quiet window, a quarter of a
// second of the churn window.
func (w *wireClos) sliceQueries() int {
	if w.churn {
		return 100
	}
	return 500
}

func (w *wireClos) measure(d time.Duration, tr *tracer) (window, error) {
	w.sample = w.sample[:0]
	cacheBefore := w.d.CacheStats()
	var win window
	if w.churn {
		var err error
		if win, err = w.measureChurn(d, tr); err != nil {
			return win, err
		}
	} else {
		deadline := time.Now().Add(d)
		win = w.clientLoop(tr, func(now time.Time) bool { return !now.Before(deadline) })
	}
	cache := w.d.CacheStats()
	w.hits += cache.Hits - cacheBefore.Hits
	w.lookups += cache.Hits - cacheBefore.Hits + cache.Misses - cacheBefore.Misses
	return win, nil
}

// clientLoop is the closed-loop client: one query after another until done
// says so.
func (w *wireClos) clientLoop(tr *tracer, done func(now time.Time) bool) window {
	var win window
	start := time.Now()
	for t0 := start; !done(t0); t0 = time.Now() {
		win.attempted++
		if w.query(tr) {
			win.failed++
		}
		w.sample = append(w.sample, clampNs(time.Since(t0)))
	}
	win.elapsed = time.Since(start)
	win.wall, win.repeats = win.elapsed, 1
	win.ops = float64(len(w.sample))
	win.samples, win.sliceOps = w.sample, w.sliceQueries()
	return win
}

// measureChurn runs the client beside a feeder goroutine that replays the
// next d of the trace in real time; the window ends when the feed does.
func (w *wireClos) measureChurn(d time.Duration, tr *tracer) (window, error) {
	rounds := min(int(d/probeInterval), w.trace.rounds-spareRounds-w.next)
	if rounds < 1 {
		return window{}, fmt.Errorf("trace has no rounds left to feed")
	}
	lo, hi := w.next, w.next+rounds
	w.next = hi
	probes := uint64(rounds * w.trace.perRound())
	start := time.Now().Add(stampLead + time.Duration(probes)*stampPerProbe)
	if err := w.stamp(lo, hi, start); err != nil {
		return window{}, err
	}
	var feedTracer *tracer
	if tr != nil {
		feedTracer = newTracer(int(probes), 1)
	}
	receivedBefore := w.d.Stats().ProbesReceived
	time.Sleep(time.Until(start))

	var fed atomic.Bool
	feedDone := make(chan error, 1)
	go func() {
		sent, late, err := w.feed(lo, hi, start, feedTracer)
		w.fed += uint64(sent)
		w.lateMax = max(w.lateMax, late)
		fed.Store(true)
		feedDone <- err
	}()
	win := w.clientLoop(tr, func(time.Time) bool { return fed.Load() })
	if err := <-feedDone; err != nil {
		return win, fmt.Errorf("feeder: %w", err)
	}
	tr.adopt(feedTracer)
	w.awaitReceived(receivedBefore+probes, 200*time.Millisecond)
	w.received += w.d.Stats().ProbesReceived - receivedBefore
	return win, nil
}

func (w *wireClos) verify(r *report) {
	r.check("every query answered correctly", w.firstFailure == "", "no failure", w.firstFailure)
	r.check("set-up queries answered", w.setupQueriesFailed == 0, 0, w.setupQueriesFailed)
	if w.churn {
		share := float64(w.received) / float64(w.fed)
		r.check("probe delivery share", share >= minDelivery, fmt.Sprintf(">= %v", minDelivery), share)
		return
	}
	r.check("answers compared with in-process ones", w.parityChecked > 0, "> 0", w.parityChecked)
	share := float64(w.hits) / float64(w.lookups)
	r.check("rank cache hit share", share >= 0.99, ">= 0.99", share)
}

func (w *wireClos) fixture() (*probeTrace, error) { return w.trace, nil }

func (w *wireClos) close() { w.closeSystem() }

// layers separates the daemon's work from the wire's: answers timed in
// process, with and without a new epoch to merge, and the cost of a
// connection alone.
func (w *wireClos) layers(r *report, plain summary) error {
	r.set("core.rank_cache_hit_share", float64(w.hits)/float64(w.lookups), int(w.lookups))
	if w.churn {
		r.set("live.probe_delivery_share", float64(w.received)/float64(w.fed), int(w.fed))
	} else {
		// Nothing is fed during a quiet window; every set-up build checked
		// that the daemon received all it was sent.
		r.set("live.probe_delivery_share", 1, w.size.wireSetupRounds*w.trace.perRound())
	}
	r.set("live.ingest_drops", float64(w.d.Collector().IngestDrops()), 1)
	r.set("live.feed_late_ms_max", float64(w.lateMax.Microseconds())/1e3, int(w.fed))
	r.set("live.setup_drain_s", w.drain.Seconds(), 1)
	r.set("live.setup_first_pass_s", w.firstPass.Seconds(), 1)

	// Refresh every stream, so the daemon's view is whole whatever aged out
	// since the window ended.
	refresh := w.trace.rounds - spareRounds
	received := w.d.Stats().ProbesReceived
	if err := w.stamp(refresh, refresh+spareRounds, time.Now()); err != nil {
		return err
	}
	// A start in the past makes every datagram due at once; the burst cap
	// still paces them.
	sent, _, err := w.feed(refresh, refresh+1, time.Now().Add(-time.Minute), nil)
	if err != nil {
		return err
	}
	w.awaitReceived(received+uint64(sent), time.Second)

	// A cold answer follows one accepted probe: it merges the new epoch
	// into a snapshot and ranks on it.
	req := wire.QueryRequest{From: w.trace.origins[0], Metric: "delay", Count: w.size.candidates, Sorted: true}
	first, _ := w.trace.round(refresh + 1)
	var cold []float64
	for i := first; i < first+min(32, w.trace.perRound()); i++ {
		received := w.d.Stats().ProbesReceived
		if _, err := w.udp.Write(w.dgram[w.dgOff[i]:w.dgOff[i+1]]); err != nil {
			return err
		}
		w.awaitReceived(received+1, time.Second)
		time.Sleep(time.Millisecond) // counted on receipt; let the ingest finish
		t0 := time.Now()
		w.d.Answer(&req)
		cold = append(cold, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	coldUs := median(cold)
	r.set("live.answer_cold_us", coldUs, len(cold))

	// A warm answer is a rank-cache hit, once the last queue reports have
	// aged out of their window and stopped making new epochs.
	time.Sleep(2 * collector.DefaultQueueWindow)
	w.d.Answer(&req)
	const warmAnswers = 2000
	t0 := time.Now()
	for i := 0; i < warmAnswers; i++ {
		w.d.Answer(&req)
	}
	warm := float64(time.Since(t0).Nanoseconds()) / 1e3 / warmAnswers
	r.set("live.answer_warm_us", warm, warmAnswers)

	if err := probeDialClose(r, w.d.QueryAddr()); err != nil {
		return err
	}
	answer := warm
	if w.churn {
		answer = coldUs
	}
	r.set("wire.query_self_us", plain.p50ns/1e3-answer, plain.slices)
	return nil
}
