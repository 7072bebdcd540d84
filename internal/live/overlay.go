package live

import (
	"fmt"
	"sort"
	"time"
)

// OverlaySpec declares a live topology: switches, switch-switch links, host
// attachment points, and the scheduler host. All hosts except the scheduler
// get a probe agent.
type OverlaySpec struct {
	// Scheduler is the collector daemon's node name.
	Scheduler string
	// Switches lists switch node names.
	Switches []string
	// Links are switch-switch adjacencies.
	Links [][2]string
	// HostAttach maps host name -> switch name.
	HostAttach map[string]string
	// RateBps is the per-port egress rate (DefaultRateBps when zero).
	RateBps int64
	// QueueCap is the per-port queue depth (DefaultQueueCap when zero).
	QueueCap int
	// ProbeInterval is the agents' probing period (100 ms when zero).
	ProbeInterval time.Duration
	// K and LinkRateBps configure the daemon's rankers.
	K           time.Duration
	LinkRateBps int64
	// HTTPAddr, when non-empty, enables the daemon's observability
	// endpoints (/metrics, /healthz).
	HTTPAddr string
	// QueueWindow and DegradedAfter tune the daemon's telemetry freshness
	// and health thresholds (daemon defaults when zero).
	QueueWindow   time.Duration
	DegradedAfter time.Duration
	// IngestQueue configures the daemon's asynchronous probe ingest (see
	// DaemonConfig).
	IngestQueue int
	// Adaptive starts the daemon's cadence control loop (anchored at
	// ProbeInterval) and opts every agent into its directives; ProbeBudget
	// optionally caps the aggregate probe rate as a fraction of the full
	// static rate (see DaemonConfig).
	Adaptive    bool
	ProbeBudget float64
}

// Overlay is a running live topology on loopback sockets.
type Overlay struct {
	Spec     OverlaySpec
	Switches map[string]*SoftSwitch
	Agents   map[string]*ProbeAgent
	Sinks    map[string]*Sink
	Daemon   *CollectorDaemon
}

// StartOverlay boots the declared topology: the collector daemon, one soft
// switch per spec entry, one probe agent per non-scheduler host, and a sink
// per host to absorb overlay traffic addressed to it. Routes are static
// shortest paths with lexicographic tie-breaking (the same rule as the
// simulator and the collector's learned-path traversal).
func StartOverlay(spec OverlaySpec) (*Overlay, error) {
	if spec.Scheduler == "" {
		return nil, fmt.Errorf("live: overlay needs a scheduler")
	}
	if _, ok := spec.HostAttach[spec.Scheduler]; !ok {
		return nil, fmt.Errorf("live: scheduler %q not attached to a switch", spec.Scheduler)
	}
	o := &Overlay{
		Spec:     spec,
		Switches: make(map[string]*SoftSwitch),
		Agents:   make(map[string]*ProbeAgent),
		Sinks:    make(map[string]*Sink),
	}
	fail := func(err error) (*Overlay, error) {
		o.Close()
		return nil, err
	}

	daemon, err := NewCollectorDaemon(spec.Scheduler, DaemonConfig{
		K:             spec.K,
		LinkRateBps:   spec.LinkRateBps,
		HTTPAddr:      spec.HTTPAddr,
		QueueWindow:   spec.QueueWindow,
		DegradedAfter: spec.DegradedAfter,
		IngestQueue:   spec.IngestQueue,
		Adaptive:      spec.Adaptive,
		AdaptiveBase:  spec.ProbeInterval,
		ProbeBudget:   spec.ProbeBudget,
	})
	if err != nil {
		return fail(err)
	}
	o.Daemon = daemon

	// Switches bind first so everyone can learn addresses.
	for _, id := range spec.Switches {
		sw, err := NewSoftSwitch(id, "127.0.0.1:0", spec.RateBps, spec.QueueCap)
		if err != nil {
			return fail(err)
		}
		o.Switches[id] = sw
	}

	// Hosts: the scheduler's traffic terminates at the daemon's UDP
	// socket; other hosts get a probe agent plus a sink for data traffic.
	hostAddr := map[string]string{spec.Scheduler: daemon.UDPAddr()}
	hosts := make([]string, 0, len(spec.HostAttach))
	for h := range spec.HostAttach {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		if h == spec.Scheduler {
			continue
		}
		uplink, ok := o.Switches[spec.HostAttach[h]]
		if !ok {
			return fail(fmt.Errorf("live: host %s attached to unknown switch %s", h, spec.HostAttach[h]))
		}
		agent, err := NewProbeAgent(h, uplink.Addr(), spec.Scheduler, spec.ProbeInterval)
		if err != nil {
			return fail(err)
		}
		o.Agents[h] = agent
		hostAddr[h] = agent.Addr()
	}

	// Adjacency over switches and hosts.
	adj := make(map[string][]string)
	addEdge := func(a, b string) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for _, l := range spec.Links {
		if o.Switches[l[0]] == nil || o.Switches[l[1]] == nil {
			return fail(fmt.Errorf("live: link %v references unknown switch", l))
		}
		addEdge(l[0], l[1])
	}
	for h, sw := range spec.HostAttach {
		if o.Switches[sw] == nil {
			return fail(fmt.Errorf("live: host %s attached to unknown switch %s", h, sw))
		}
		addEdge(h, sw)
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	isHost := func(n string) bool { _, ok := spec.HostAttach[n]; return ok }

	// Ports: every switch gets one port per adjacent node.
	ports := make(map[string]map[string]int) // switch -> neighbor -> port
	for id, sw := range o.Switches {
		ports[id] = make(map[string]int)
		for _, nb := range adj[id] {
			var addr string
			if isHost(nb) {
				addr = hostAddr[nb]
			} else {
				addr = o.Switches[nb].Addr()
			}
			idx, err := sw.AddPort(nb, addr)
			if err != nil {
				return fail(err)
			}
			ports[id][nb] = idx
		}
	}

	// Routes: BFS from each host, hosts never forward.
	for _, dst := range hosts {
		next := map[string]string{}
		visited := map[string]bool{dst: true}
		frontier := []string{dst}
		for len(frontier) > 0 {
			var nf []string
			for _, cur := range frontier {
				for _, nb := range adj[cur] {
					if visited[nb] {
						continue
					}
					visited[nb] = true
					next[nb] = cur
					if !isHost(nb) {
						nf = append(nf, nb)
					}
				}
			}
			frontier = nf
		}
		for node, via := range next {
			if isHost(node) {
				continue
			}
			idx, ok := ports[node][via]
			if !ok {
				return fail(fmt.Errorf("live: no port from %s to %s", node, via))
			}
			if err := o.Switches[node].SetRoute(dst, idx); err != nil {
				return fail(err)
			}
		}
	}

	// Sinks absorb data traffic addressed to non-scheduler hosts. We bind
	// them on the agents' sockets? No — agents own their socket for
	// probing; data traffic to a host is routed to the same address, and
	// the agent simply discards whatever arrives. Nothing to do here.

	for _, sw := range o.Switches {
		sw.Start()
	}
	for _, a := range o.Agents {
		if spec.Adaptive {
			a.EnableAdaptive()
		}
		a.Start()
	}
	return o, nil
}

// Close shuts the whole overlay down.
func (o *Overlay) Close() {
	for _, a := range o.Agents {
		a.Close()
	}
	for _, sw := range o.Switches {
		sw.Close()
	}
	for _, s := range o.Sinks {
		s.Close()
	}
	if o.Daemon != nil {
		o.Daemon.Close()
	}
}
