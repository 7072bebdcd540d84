package collector

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"intsched/internal/netsim"
	"intsched/internal/telemetry"
)

// Reference model of the collector and a seeded stateful harness that drives
// the model and a Collector through the same operations and compares every
// observable after every step.
//
// The model is an executable specification, not a second implementation: it
// keeps the probe history in plain maps and recomputes everything on every
// read. Nothing is cached, nothing lives in index space, queue maxima are a
// windowedQueueMax scan over report lists that are never pruned, and link
// delay is refolded from the full sample history. Cadence directives and
// rankings belong to a later oracle.
//
// Two rules of the collector are not obvious from its API and are written
// down here because the model has to state them:
//
//   - Queue reports age out for good. The expiry horizon (the largest
//     now-window any read has seen) never moves back, so growing the window
//     with SetQueueWindow does not resurrect a report that had left it.
//   - Aging is lazy: evictions and report expiry take effect at a read. A
//     read that finds something aged out although no probe or setting
//     changed since the previous read advances the epoch by one, because the
//     published state changed with no ingest to account for it.

type portKey struct {
	device string
	port   int
}

type refStream struct {
	seq  uint64
	path []string
}

type refEviction struct {
	from, to string
	silence  time.Duration
}

type refModel struct {
	self        string
	window      time.Duration
	cfgTTL      time.Duration // Config.AdjacencyTTL as given
	alpha       float64
	defaultRate int64

	ports   map[string]map[int]string   // device -> egress port -> neighbor
	seen    map[edgeKey]time.Duration   // directed edge -> last confirmation
	samples map[edgeKey][]time.Duration // directed edge -> every latency sample, in order
	rates   map[edgeKey]int64           // configured capacities
	reports map[portKey][]queueReport   // every queue report ever received
	horizon time.Duration               // reports older than this are gone for good
	hosts   map[string]bool
	streams map[probeKey]refStream

	outOfOrder, remaps, evictions uint64
	evictionLog                   []refEviction
	epoch                         uint64

	// lastRead is the epoch the previous read left behind (haveRead false
	// before the first read).
	lastRead uint64
	haveRead bool
}

func newRefModel(self string, cfg Config) *refModel {
	cfg = cfg.withDefaults()
	return &refModel{
		self:        self,
		window:      cfg.QueueWindow,
		cfgTTL:      cfg.AdjacencyTTL,
		alpha:       cfg.DelayAlpha,
		defaultRate: cfg.DefaultLinkRateBps,
		ports:       map[string]map[int]string{},
		seen:        map[edgeKey]time.Duration{},
		samples:     map[edgeKey][]time.Duration{},
		rates:       map[edgeKey]int64{},
		reports:     map[portKey][]queueReport{},
		horizon:     math.MinInt64,
		hosts:       map[string]bool{self: true},
		streams:     map[probeKey]refStream{},
	}
}

func (m *refModel) ttl() time.Duration {
	switch {
	case m.cfgTTL < 0:
		return 0
	case m.cfgTTL > 0:
		return m.cfgTTL
	}
	return DefaultAdjacencyWindows * m.window
}

func (m *refModel) learn(from string, port int, to string, now time.Duration) {
	if m.ports[from] == nil {
		m.ports[from] = map[int]string{}
	}
	m.ports[from][port] = to
	m.seen[edgeKey{from, to}] = now
}

func (m *refModel) sample(a, b string, lat time.Duration) {
	if lat > 0 {
		m.samples[edgeKey{a, b}] = append(m.samples[edgeKey{a, b}], lat)
		m.samples[edgeKey{b, a}] = append(m.samples[edgeKey{b, a}], lat)
	}
}

// probe applies one deterministic probe.
func (m *refModel) probe(p *telemetry.ProbePayload, now time.Duration) {
	key := probeKey{p.Origin, p.Target}
	prev, known := m.streams[key]
	if known && p.Seq <= prev.seq {
		m.outOfOrder++
		return
	}
	m.epoch++
	target := p.Target
	if target == "" {
		target = m.self
	}
	m.hosts[p.Origin], m.hosts[target] = true, true

	path := []string{p.Origin}
	at, egress := p.Origin, 0
	for i := range p.Stack.Records {
		rec := &p.Stack.Records[i]
		path = append(path, rec.Device)
		m.learn(at, egress, rec.Device, now)
		m.learn(rec.Device, rec.IngressPort, at, now)
		m.sample(at, rec.Device, rec.LinkLatency)
		for _, q := range rec.Queues {
			k := portKey{rec.Device, q.Port}
			m.reports[k] = append(m.reports[k], queueReport{at: now, maxQueue: q.MaxQueue})
		}
		at, egress = rec.Device, rec.EgressPort
	}
	path = append(path, target)
	m.learn(at, egress, target, now)
	m.learn(target, 0, at, now)
	if n := len(p.Stack.Records); n > 0 {
		lat := p.LastHopLatency
		if target == m.self {
			lat = now - p.Stack.Records[n-1].EgressTS
		}
		m.sample(at, target, lat)
	}

	// A stream whose hop sequence changed abandons the edges only its old
	// route used: they expire within two queue windows instead of a TTL.
	if known && !slices.Equal(prev.path, path) {
		m.remaps++
		if ttl := m.ttl(); ttl > 0 {
			kept := map[edgeKey]bool{}
			for i := 0; i+1 < len(path); i++ {
				kept[edgeKey{path[i], path[i+1]}], kept[edgeKey{path[i+1], path[i]}] = true, true
			}
			deadline := now - ttl + 2*m.window
			for i := 0; i+1 < len(prev.path); i++ {
				for _, e := range []edgeKey{{prev.path[i], prev.path[i+1]}, {prev.path[i+1], prev.path[i]}} {
					if s, ok := m.seen[e]; ok && !kept[e] && s > deadline {
						m.seen[e] = deadline
					}
				}
			}
		}
	}
	m.streams[key] = refStream{seq: p.Seq, path: path}
}

func (m *refModel) setWindow(w time.Duration) {
	if w > 0 {
		m.window = w
		m.epoch++
	}
}

func (m *refModel) setRate(a, b string, bps int64) {
	m.rates[edgeKey{a, b}], m.rates[edgeKey{b, a}] = bps, bps
	m.epoch++
}

// liveReports returns the port's reports that have not aged out at now.
func (m *refModel) liveReports(k portKey) []queueReport {
	all := m.reports[k]
	return all[sort.Search(len(all), func(i int) bool { return all[i].at >= m.horizon }):]
}

// refView is what one read of the model yields.
type refView struct {
	nodes, hosts []string
	nbrs         map[string][]string
}

// read ages the state to now and rebuilds the whole view from it.
func (m *refModel) read(now time.Duration) refView {
	aged := false

	// Adjacencies silent for a TTL are evicted, in (from, to) order.
	if ttl := m.ttl(); ttl > 0 {
		var expired []edgeKey
		for e, s := range m.seen {
			if s <= now-ttl {
				expired = append(expired, e)
			}
		}
		sort.Slice(expired, func(i, j int) bool {
			if expired[i].from != expired[j].from {
				return expired[i].from < expired[j].from
			}
			return expired[i].to < expired[j].to
		})
		for _, e := range expired {
			m.evictionLog = append(m.evictionLog, refEviction{e.from, e.to, now - m.seen[e]})
			m.evictions++
			delete(m.seen, e)
			for port, to := range m.ports[e.from] {
				if to == e.to {
					delete(m.ports[e.from], port)
				}
			}
			aged = true
		}
	}

	// Queue reports older than the window leave it for good.
	if h := now - m.window; h > m.horizon {
		for _, rs := range m.reports {
			for _, r := range rs {
				if r.at >= m.horizon && r.at < h {
					aged = true
				}
			}
		}
		m.horizon = h
	}

	if m.haveRead && m.lastRead == m.epoch && aged {
		m.epoch++
	}
	m.lastRead, m.haveRead = m.epoch, true

	v := refView{nbrs: map[string][]string{}}
	present := map[string]bool{}
	for from, ports := range m.ports {
		for _, to := range ports {
			present[from], present[to] = true, true
			if !slices.Contains(v.nbrs[from], to) {
				v.nbrs[from] = append(v.nbrs[from], to)
			}
		}
		sort.Strings(v.nbrs[from])
	}
	v.nodes = sortedKeys(present)
	v.hosts = sortedKeys(m.hosts)
	return v
}

// refMetrics is what a snapshot must report for one ordered node pair.
type refMetrics struct {
	delay   time.Duration
	delayOK bool
	rate    int64
	queue   int
	queueOK bool
}

// metrics resolves the pair a->b the way a snapshot must (the reverse-slot
// rule): a pair adjacent in either direction reports a->b's own delay
// history and configured rate; the queue is that of a's egress port toward
// b, which exists only while a->b itself is in the adjacency. A pair
// adjacent in neither direction reads as unmeasured at the default rate.
func (m *refModel) metrics(v refView, a, b string, now time.Duration) refMetrics {
	out := refMetrics{rate: m.defaultRate}
	fwd, rev := slices.Contains(v.nbrs[a], b), slices.Contains(v.nbrs[b], a)
	if !fwd && !rev {
		return out
	}
	if s := m.samples[edgeKey{a, b}]; len(s) > 0 {
		ewma := s[0]
		for _, x := range s[1:] {
			ewma = time.Duration(m.alpha*float64(x) + (1-m.alpha)*float64(ewma))
		}
		out.delay, out.delayOK = ewma, true
	}
	if r, ok := m.rates[edgeKey{a, b}]; ok {
		out.rate = r
	}
	if fwd {
		for port, to := range m.ports[a] {
			if to == b {
				out.queue, out.queueOK, _ = windowedQueueMax(m.liveReports(portKey{a, port}), now, m.window)
			}
		}
	}
	return out
}

// jitter is the sample standard deviation of every latency sample a->b ever
// took, in two passes; like the history itself it outlives the adjacency.
// ok is false with fewer than two samples.
func (m *refModel) jitter(a, b string) (time.Duration, bool) {
	s := m.samples[edgeKey{a, b}]
	if len(s) < 2 {
		return 0, false
	}
	sum := 0.0
	for _, x := range s {
		sum += float64(x)
	}
	mean, sq := sum/float64(len(s)), 0.0
	for _, x := range s {
		sq += (float64(x) - mean) * (float64(x) - mean)
	}
	return time.Duration(math.Sqrt(sq / float64(len(s)-1))), true
}

// nextQueueExpiry is the instant the oldest live report leaves the window.
func (m *refModel) nextQueueExpiry() (time.Duration, bool) {
	best, ok := time.Duration(0), false
	for k := range m.reports {
		if live := m.liveReports(k); len(live) > 0 && (!ok || live[0].at+m.window < best) {
			best, ok = live[0].at+m.window, true
		}
	}
	return best, ok
}

// nextAdjDeadline is the instant the longest-silent adjacency is evicted.
func (m *refModel) nextAdjDeadline() (time.Duration, bool) {
	best, ok := time.Duration(0), false
	ttl := m.ttl()
	for _, s := range m.seen {
		if ttl > 0 && (!ok || s+ttl < best) {
			best, ok = s+ttl, true
		}
	}
	return best, ok
}

// --- Operations ----------------------------------------------------------

type refOpKind int

const (
	opStep        refOpKind = iota // advance the clock by d
	opStepToQueue                  // advance to the next queue-report expiry, plus d
	opStepToAdj                    // advance to the next adjacency deadline, plus d
	opProbe
	opWindow // SetQueueWindow(d)
	opRate   // SetLinkRate(a, b, rate)
	opReread // nothing: the harness reads again at the same instant
)

type refRec struct {
	dev       string
	in, out   int
	lat       time.Duration
	egressAgo time.Duration // EgressTS = now - egressAgo
	queues    []telemetry.PortQueue
}

type refOp struct {
	kind refOpKind
	d    time.Duration

	origin, target string
	seq            uint64
	lastHop        time.Duration
	recs           []refRec

	a, b string
	rate int64
}

func (o refOp) String() string {
	switch o.kind {
	case opStep:
		return fmt.Sprintf("step %v", o.d)
	case opStepToQueue:
		return fmt.Sprintf("step to next queue expiry +%v", o.d)
	case opStepToAdj:
		return fmt.Sprintf("step to next adjacency deadline +%v", o.d)
	case opWindow:
		return fmt.Sprintf("SetQueueWindow(%v)", o.d)
	case opRate:
		return fmt.Sprintf("SetLinkRate(%s, %s, %d)", o.a, o.b, o.rate)
	case opReread:
		return "read again"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "probe %s->%q seq %d lastHop %v:", o.origin, o.target, o.seq, o.lastHop)
	for _, r := range o.recs {
		fmt.Fprintf(&b, " [%s in %d out %d lat %v egress -%v q %v]", r.dev, r.in, r.out, r.lat, r.egressAgo, r.queues)
	}
	return b.String()
}

func (o refOp) payload(now time.Duration) *telemetry.ProbePayload {
	p := &telemetry.ProbePayload{Origin: o.origin, Target: o.target, Seq: o.seq, LastHopLatency: o.lastHop}
	for _, r := range o.recs {
		p.Stack.Append(telemetry.Record{
			Device: r.dev, IngressPort: r.in, EgressPort: r.out, LinkLatency: r.lat,
			EgressTS: now - r.egressAgo, Queues: r.queues,
		})
	}
	return p
}

// names lists every node ID the ops mention, plus the collector itself.
func opNames(self string, ops []refOp) []string {
	set := map[string]bool{self: true}
	for _, o := range ops {
		for _, n := range []string{o.origin, o.target, o.a, o.b} {
			if n != "" {
				set[n] = true
			}
		}
		for _, r := range o.recs {
			set[r.dev] = true
		}
	}
	return sortedKeys(set)
}

// runRef drives ops through a fresh collector and a fresh model and returns
// the first disagreement, naming the step it appeared after.
func runRef(cfg Config, ops []refOp) error {
	const self = "sched"
	clk := &fakeClock{now: time.Second}
	c := New(self, clk.Now, cfg)
	m := newRefModel(self, cfg)
	var hooked []refEviction
	c.SetEvictionHook(func(from, to string, silence time.Duration) {
		hooked = append(hooked, refEviction{from, to, silence})
	})
	names := opNames(self, ops)

	for step, op := range ops {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("after step %d (%v) at %v: %s", step, op, clk.now, fmt.Sprintf(format, args...))
		}
		target := clk.now
		switch op.kind {
		case opStep:
			target += op.d
		case opStepToQueue:
			if at, ok := m.nextQueueExpiry(); ok && at+op.d > target {
				target = at + op.d
			}
		case opStepToAdj:
			if at, ok := m.nextAdjDeadline(); ok && at+op.d > target {
				target = at + op.d
			}
		case opProbe:
			p := op.payload(clk.now)
			m.probe(p, clk.now)
			c.HandleProbe(p)
		case opWindow:
			m.setWindow(op.d)
			c.SetQueueWindow(op.d)
		case opRate:
			m.setRate(op.a, op.b, op.rate)
			c.SetLinkRate(netsim.NodeID(op.a), netsim.NodeID(op.b), op.rate)
		}
		clk.now = target

		if got := c.Epoch(); got != m.epoch {
			return fail("epoch %d before the read, model %d", got, m.epoch)
		}
		v := m.read(clk.now)
		topo := c.Snapshot()
		if got := c.Epoch(); got != m.epoch || topo.Epoch() != m.epoch {
			return fail("epoch %d (snapshot %d) after the read, model %d", got, topo.Epoch(), m.epoch)
		}
		if again := c.Snapshot(); again != topo || c.Epoch() != m.epoch {
			return fail("a second read at the same instant rebuilt the snapshot or moved the epoch")
		}

		if !slices.Equal(topo.nodes, v.nodes) {
			return fail("nodes %v, model %v", topo.nodes, v.nodes)
		}
		if got := topo.Hosts(); !slices.Equal(got, v.hosts) {
			return fail("hosts %v, model %v", got, v.hosts)
		}
		for _, a := range names {
			if got := topo.Neighbors(a); !slices.Equal(got, v.nbrs[a]) {
				return fail("neighbors(%s) %v, model %v", a, got, v.nbrs[a])
			}
			for _, b := range names {
				want := m.metrics(v, a, b, clk.now)
				if d, ok := topo.LinkDelay(a, b); d != want.delay || ok != want.delayOK {
					return fail("delay(%s,%s) %v,%v, model %v,%v", a, b, d, ok, want.delay, want.delayOK)
				}
				// The collector accumulates jitter by Welford's recurrence,
				// the model in two passes: equal up to float rounding.
				wantJ, wantOK := m.jitter(a, b)
				if j, ok := c.LinkJitter(a, b); ok != wantOK || j-wantJ > 2 || wantJ-j > 2 {
					return fail("jitter(%s,%s) %v,%v, model %v,%v", a, b, j, ok, wantJ, wantOK)
				}
				if r := topo.LinkRate(a, b); r != want.rate {
					return fail("rate(%s,%s) %d, model %d", a, b, r, want.rate)
				}
				if q, ok := topo.QueueMax(a, b); q != want.queue || ok != want.queueOK {
					return fail("queue(%s,%s) %d,%v, model %d,%v", a, b, q, ok, want.queue, want.queueOK)
				}
			}
		}
		st := c.Stats()
		if st.ProbesOutOfOrder != m.outOfOrder || st.PathRemaps != m.remaps || st.AdjacencyEvictions != m.evictions {
			return fail("stats out-of-order %d remaps %d evictions %d, model %d %d %d",
				st.ProbesOutOfOrder, st.PathRemaps, st.AdjacencyEvictions, m.outOfOrder, m.remaps, m.evictions)
		}
		if !slices.Equal(hooked, m.evictionLog) {
			return fail("eviction hook saw %v, model %v", hooked, m.evictionLog)
		}
	}
	return nil
}

// minimiseOps drops every op whose removal keeps the run failing.
func minimiseOps(cfg Config, ops []refOp) []refOp {
	for shrunk := true; shrunk; {
		shrunk = false
		for i := 0; i < len(ops); i++ {
			without := slices.Delete(slices.Clone(ops), i, i+1)
			if runRef(cfg, without) != nil {
				ops, shrunk = without, true
				i--
			}
		}
	}
	return ops
}

func checkRef(t *testing.T, cfg Config, ops []refOp) {
	t.Helper()
	if runRef(cfg, ops) == nil {
		return
	}
	ops = minimiseOps(cfg, ops)
	var b strings.Builder
	for i, op := range ops {
		fmt.Fprintf(&b, "  %d: %v\n", i, op)
	}
	t.Fatalf("collector disagrees with the reference model (config %+v)\n%v\nminimised to %d ops:\n%s",
		cfg, runRef(cfg, ops), len(ops), b.String())
}

// --- Generation ----------------------------------------------------------

// refFabric is a small random network: switches joined by a connected random
// graph, hosts (the collector among them) hanging off one switch each. Every
// device reaches each neighbor through one fixed port; hosts use port 0.
type refFabric struct {
	hosts  []string
	attach map[string]string   // host -> its switch
	links  map[string][]string // switch -> neighboring switches
	port   map[edgeKey]int     // (device, neighbor) -> egress port on device
}

func newRefFabric(rng *rand.Rand) *refFabric {
	f := &refFabric{attach: map[string]string{}, links: map[string][]string{}, port: map[edgeKey]int{}}
	var switches []string
	join := func(a, b string) {
		if a != b && !slices.Contains(f.links[a], b) {
			f.links[a], f.links[b] = append(f.links[a], b), append(f.links[b], a)
		}
	}
	for i := 0; i < 3+rng.Intn(4); i++ {
		s := fmt.Sprintf("s%d", i)
		if i > 0 {
			join(s, switches[rng.Intn(i)])
		}
		switches = append(switches, s)
	}
	for i := rng.Intn(4); i > 0; i-- {
		join(switches[rng.Intn(len(switches))], switches[rng.Intn(len(switches))])
	}
	f.hosts = []string{"sched"}
	for i := 0; i < 3+rng.Intn(3); i++ {
		f.hosts = append(f.hosts, fmt.Sprintf("h%d", i))
	}
	next := map[string]int{}
	wire := func(dev, nbr string) {
		next[dev]++
		f.port[edgeKey{dev, nbr}] = next[dev]
	}
	for _, s := range switches {
		for _, nb := range f.links[s] {
			wire(s, nb)
		}
	}
	for _, h := range f.hosts {
		f.attach[h] = switches[rng.Intn(len(switches))]
		wire(f.attach[h], h)
	}
	return f
}

// route returns a random loop-free switch path from a to b.
func (f *refFabric) route(rng *rand.Rand, a, b string) []string {
	var walk func(path []string) []string
	walk = func(path []string) []string {
		at := path[len(path)-1]
		if at == b {
			return path
		}
		for _, i := range rng.Perm(len(f.links[at])) {
			if nb := f.links[at][i]; !slices.Contains(path, nb) {
				if p := walk(append(path, nb)); p != nil {
					return p
				}
			}
		}
		return nil
	}
	return walk([]string{a})
}

// genOps draws a random operation sequence over a random fabric.
func genOps(rng *rand.Rand, window time.Duration, n int) []refOp {
	f := newRefFabric(rng)
	type stream struct {
		origin, target string
		seq            uint64
		route          []string // nil: direct host-to-host, no switches
	}
	var streams []*stream
	for _, h := range f.hosts[1:] {
		streams = append(streams, &stream{origin: h})
	}
	for i := 0; i < 3; i++ { // relayed and direct probes between edge hosts
		a, b := f.hosts[1+rng.Intn(len(f.hosts)-1)], f.hosts[1+rng.Intn(len(f.hosts)-1)]
		if a != b {
			streams = append(streams, &stream{origin: a, target: b})
		}
	}
	dest := func(s *stream) string {
		if s.target == "" {
			return "sched"
		}
		return s.target
	}
	reroute := func(s *stream) {
		s.route = nil
		if s.target == "" || rng.Intn(4) > 0 {
			s.route = f.route(rng, f.attach[s.origin], f.attach[dest(s)])
		}
	}
	for _, s := range streams {
		reroute(s)
	}
	ms := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo+1))*time.Millisecond + time.Duration(rng.Intn(1000))*time.Microsecond
	}

	var ops []refOp
	for len(ops) < n {
		switch r := rng.Intn(100); {
		case r < 50:
			s := streams[rng.Intn(len(streams))]
			if rng.Intn(8) == 0 {
				reroute(s)
			}
			op := refOp{kind: opProbe, origin: s.origin, target: s.target}
			switch k := rng.Intn(20); {
			case k == 0: // duplicate
				op.seq = s.seq
			case k == 1 && s.seq > 1: // stale
				op.seq = s.seq - uint64(1+rng.Intn(int(s.seq-1)))
			default:
				s.seq++
				op.seq = s.seq
			}
			prev := s.origin
			for i, dev := range s.route {
				nxt := dest(s)
				if i+1 < len(s.route) {
					nxt = s.route[i+1]
				}
				rec := refRec{dev: dev, in: f.port[edgeKey{dev, prev}], out: f.port[edgeKey{dev, nxt}],
					lat: ms(0, 8), egressAgo: ms(0, 3)}
				if rng.Intn(6) == 0 {
					rec.lat, rec.egressAgo = 0, 0 // unmeasured hop
				}
				for port := 1; port <= 4; port++ {
					if rng.Intn(3) == 0 {
						rec.queues = append(rec.queues, telemetry.PortQueue{Port: port, MaxQueue: rng.Intn(40), Packets: 1})
					}
				}
				op.recs = append(op.recs, rec)
				prev = dev
			}
			if s.target != "" && rng.Intn(5) > 0 {
				op.lastHop = ms(0, 5)
			}
			ops = append(ops, op)
		case r < 72:
			ops = append(ops, refOp{kind: opStep, d: ms(0, 30)})
		case r < 78:
			ops = append(ops, refOp{kind: opStep, d: window/2 + ms(0, int(window/time.Millisecond))})
		case r < 81:
			ops = append(ops, refOp{kind: opStep, d: 2*window + ms(0, 4*int(window/time.Millisecond))})
		case r < 86:
			ops = append(ops, refOp{kind: opStepToQueue, d: time.Duration(rng.Intn(2))})
		case r < 90:
			ops = append(ops, refOp{kind: opStepToAdj, d: time.Duration(rng.Intn(2))})
		case r < 93:
			ops = append(ops, refOp{kind: opWindow, d: window / 2 << rng.Intn(3)})
		case r < 97:
			// Any host-switch or switch-switch pair, linked or not, learned or not.
			a := f.hosts[rng.Intn(len(f.hosts))]
			b := f.attach[a]
			if rng.Intn(2) == 0 {
				a = f.attach[f.hosts[rng.Intn(len(f.hosts))]]
			}
			if a != b {
				ops = append(ops, refOp{kind: opRate, a: a, b: b, rate: int64(1+rng.Intn(100)) * 1_000_000})
			}
		default:
			ops = append(ops, refOp{kind: opReread})
		}
	}
	return ops
}

// feedScriptOps is a fixed case: two streams sharing a four-switch diamond,
// a configured rate, a remap of one stream and the aging-out of the branch
// it left.
func feedScriptOps() []refOp {
	probe := func(origin string, seq uint64, lat time.Duration, recs ...refRec) refOp {
		for i := range recs {
			recs[i].lat = lat
		}
		return refOp{kind: opProbe, origin: origin, seq: seq, recs: recs}
	}
	q := func(port, depth int) telemetry.PortQueue {
		return telemetry.PortQueue{Port: port, MaxQueue: depth, Packets: 10}
	}
	step := func(d time.Duration) refOp { return refOp{kind: opStep, d: d} }
	return []refOp{
		probe("n1", 1, 10*time.Millisecond,
			refRec{dev: "s1", in: 0, out: 1, queues: []telemetry.PortQueue{q(1, 2), q(2, 8)}},
			refRec{dev: "s2", in: 0, out: 1},
			refRec{dev: "s4", in: 0, out: 2}),
		step(10 * time.Millisecond),
		probe("n1", 2, 10*time.Millisecond,
			refRec{dev: "s1", in: 0, out: 2, queues: []telemetry.PortQueue{q(1, 3)}},
			refRec{dev: "s3", in: 0, out: 1},
			refRec{dev: "s4", in: 1, out: 2}),
		step(10 * time.Millisecond),
		probe("n2", 1, 7*time.Millisecond,
			refRec{dev: "s3", in: 2, out: 1, queues: []telemetry.PortQueue{q(1, 5)}},
			refRec{dev: "s4", in: 1, out: 2}),
		{kind: opRate, a: "n1", b: "s1", rate: 100_000_000},
		// Remap stream n2 onto s2 and let the abandoned s3 edges age out.
		step(100 * time.Millisecond),
		probe("n2", 2, 7*time.Millisecond,
			refRec{dev: "s2", in: 2, out: 1},
			refRec{dev: "s4", in: 0, out: 2}),
		step(450 * time.Millisecond),
		probe("n1", 3, 12*time.Millisecond,
			refRec{dev: "s1", in: 0, out: 1, queues: []telemetry.PortQueue{q(1, 6)}},
			refRec{dev: "s2", in: 0, out: 1},
			refRec{dev: "s4", in: 0, out: 2}),
		probe("n2", 3, 7*time.Millisecond,
			refRec{dev: "s2", in: 2, out: 1},
			refRec{dev: "s4", in: 0, out: 2}),
	}
}

// TestCollectorMatchesReferenceModel drives seeded random operation
// sequences, and the fixed feed script, through the collector and the
// reference model. A failing seed prints its minimised operation list.
func TestCollectorMatchesReferenceModel(t *testing.T) {
	t.Run("feed-script", func(t *testing.T) {
		checkRef(t, Config{QueueWindow: 200 * time.Millisecond}, feedScriptOps())
	})
	for seed := int64(1); seed <= 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			QueueWindow:  []time.Duration{40, 200}[rng.Intn(2)] * time.Millisecond,
			AdjacencyTTL: []time.Duration{0, 0, 330 * time.Millisecond, NoAdjacencyAging}[rng.Intn(4)],
			DelayAlpha:   []float64{0, 0.5}[rng.Intn(2)],
		}
		ops := genOps(rng, cfg.QueueWindow, 300)
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { checkRef(t, cfg, ops) })
	}
}
