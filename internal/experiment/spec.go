package experiment

import (
	"encoding/json"
	"fmt"
	"time"

	"intsched/internal/netsim"
	"intsched/internal/simtime"
)

// TopoSpec is a declarative topology description, loadable from JSON, so
// experiments can run on networks other than the paper's Fig 4 (cmd/intsim
// -topo file.json). Hosts are single-homed to a switch; switch-switch links
// form the fabric; one host is the scheduler.
type TopoSpec struct {
	// Name labels the topology in reports.
	Name string `json:"name"`
	// Scheduler is the host running the collector and scheduler service.
	Scheduler string `json:"scheduler"`
	// Switches lists switch node IDs.
	Switches []string `json:"switches"`
	// Hosts maps host ID -> attachment switch.
	Hosts map[string]string `json:"hosts"`
	// Links are switch-switch adjacencies.
	Links [][2]string `json:"links"`
	// RateBps is the switch egress rate (paper default when zero).
	RateBps int64 `json:"rate_bps,omitempty"`
	// HostEgressBps is the host NIC rate (default 1 Gbps).
	HostEgressBps int64 `json:"host_egress_bps,omitempty"`
	// DelayUs is the per-link propagation delay in microseconds
	// (paper's 10 ms when zero).
	DelayUs int64 `json:"delay_us,omitempty"`
	// LinkDelayUs optionally overrides DelayUs per switch-switch link,
	// aligned by index with Links. Generators fill it with seeded jitter so
	// each fabric link gets a distinct (but reproducible) propagation
	// delay. Empty applies DelayUs everywhere.
	LinkDelayUs []int64 `json:"link_delay_us,omitempty"`
	// QueueCap is the egress queue depth in packets (default 64).
	QueueCap int `json:"queue_cap,omitempty"`
}

// ParseTopoSpec decodes and validates a JSON topology.
func ParseTopoSpec(data []byte) (*TopoSpec, error) {
	var s TopoSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("experiment: topo spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural consistency.
func (s *TopoSpec) Validate() error {
	if len(s.Switches) == 0 {
		return fmt.Errorf("experiment: topo %q: no switches", s.Name)
	}
	if len(s.Hosts) < 2 {
		return fmt.Errorf("experiment: topo %q: need at least two hosts", s.Name)
	}
	swSet := make(map[string]bool, len(s.Switches))
	for _, sw := range s.Switches {
		if swSet[sw] {
			return fmt.Errorf("experiment: topo %q: duplicate switch %q", s.Name, sw)
		}
		swSet[sw] = true
	}
	for h, sw := range s.Hosts {
		if !swSet[sw] {
			return fmt.Errorf("experiment: topo %q: host %q attached to unknown switch %q", s.Name, h, sw)
		}
		if swSet[h] {
			return fmt.Errorf("experiment: topo %q: %q is both host and switch", s.Name, h)
		}
	}
	if s.Scheduler == "" {
		return fmt.Errorf("experiment: topo %q: no scheduler", s.Name)
	}
	if _, ok := s.Hosts[s.Scheduler]; !ok {
		return fmt.Errorf("experiment: topo %q: scheduler %q is not a host", s.Name, s.Scheduler)
	}
	for _, l := range s.Links {
		if !swSet[l[0]] || !swSet[l[1]] {
			return fmt.Errorf("experiment: topo %q: link %v references unknown switch", s.Name, l)
		}
		if l[0] == l[1] {
			return fmt.Errorf("experiment: topo %q: self-link %v", s.Name, l)
		}
	}
	if len(s.LinkDelayUs) != 0 && len(s.LinkDelayUs) != len(s.Links) {
		return fmt.Errorf("experiment: topo %q: %d per-link delays for %d links", s.Name, len(s.LinkDelayUs), len(s.Links))
	}
	return nil
}

// params derives LinkParams from the spec's overrides.
func (s *TopoSpec) params() LinkParams {
	p := LinkParams{
		RateBps:       s.RateBps,
		HostEgressBps: s.HostEgressBps,
		QueueCap:      s.QueueCap,
	}
	if s.DelayUs > 0 {
		p.Delay = time.Duration(s.DelayUs) * time.Microsecond
	}
	return p.withDefaults()
}

// Build constructs the network described by the spec.
func (s *TopoSpec) Build(engine *simtime.Engine) (*Topology, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	params := s.params()
	nw := netsim.New(engine)
	for _, sw := range s.Switches {
		nw.AddSwitch(netsim.NodeID(sw))
	}
	for i, l := range s.Links {
		cfg := params.config()
		if i < len(s.LinkDelayUs) && s.LinkDelayUs[i] > 0 {
			cfg.Delay = time.Duration(s.LinkDelayUs[i]) * time.Microsecond
		}
		if _, err := nw.Connect(netsim.NodeID(l[0]), netsim.NodeID(l[1]), cfg); err != nil {
			return nil, err
		}
	}
	// Deterministic host order.
	hosts := make([]netsim.NodeID, 0, len(s.Hosts))
	for h := range s.Hosts {
		hosts = append(hosts, netsim.NodeID(h))
	}
	sortNodeIDs(hosts)
	for _, h := range hosts {
		nw.AddHost(h)
		if _, err := nw.Connect(h, netsim.NodeID(s.Hosts[string(h)]), params.hostConfig()); err != nil {
			return nil, err
		}
	}
	if err := nw.ComputeRoutes(); err != nil {
		return nil, err
	}
	// Reachability check: every host pair at small scale. Metro-scale
	// fabrics would make this quadratic in thousands of hosts, so beyond
	// 64 hosts only scheduler<->host reachability is verified (those paths
	// span every tier of the generated fabrics).
	checkHosts := hosts
	if len(hosts) > 64 {
		checkHosts = []netsim.NodeID{netsim.NodeID(s.Scheduler)}
	}
	for _, a := range checkHosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if _, err := nw.PathBetween(a, b); err != nil {
				return nil, fmt.Errorf("experiment: topo %q: %w", s.Name, err)
			}
			if _, err := nw.PathBetween(b, a); err != nil {
				return nil, fmt.Errorf("experiment: topo %q: %w", s.Name, err)
			}
		}
	}
	return &Topology{Net: nw, Hosts: hosts, Scheduler: netsim.NodeID(s.Scheduler)}, nil
}

func sortNodeIDs(ids []netsim.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// Fig4Spec returns the paper's experimental topology as a spec (the same
// network BuildFig4 constructs), usable as a template for custom specs.
func Fig4Spec() *TopoSpec {
	spec := &TopoSpec{
		Name:      "fig4",
		Scheduler: "n6",
		Hosts: map[string]string{
			"n1": "s01", "n2": "s02", "n3": "s04", "n4": "s05",
			"n5": "s07", "n6": "s08", "n7": "s10", "n8": "s11",
		},
	}
	for i := 1; i <= 12; i++ {
		spec.Switches = append(spec.Switches, fmt.Sprintf("s%02d", i))
	}
	for i := 1; i <= 12; i++ {
		a := fmt.Sprintf("s%02d", i)
		b := fmt.Sprintf("s%02d", i%12+1)
		spec.Links = append(spec.Links, [2]string{a, b})
	}
	spec.Links = append(spec.Links, [2]string{"s01", "s07"}, [2]string{"s04", "s10"})
	return spec
}

// FatTreeSpec returns a small two-tier leaf-spine topology: `leaves` leaf
// switches each hosting `hostsPerLeaf` hosts, fully connected to `spines`
// spine switches. The first host (lexicographically) is the scheduler.
// Useful for evaluating the scheduler beyond the paper's ring.
func FatTreeSpec(spines, leaves, hostsPerLeaf int) (*TopoSpec, error) {
	if spines < 1 || leaves < 2 || hostsPerLeaf < 1 {
		return nil, fmt.Errorf("experiment: fat tree needs ≥1 spine, ≥2 leaves, ≥1 host/leaf")
	}
	spec := &TopoSpec{Name: fmt.Sprintf("leafspine-%dx%dx%d", spines, leaves, hostsPerLeaf)}
	spec.Hosts = make(map[string]string)
	for s := 0; s < spines; s++ {
		spec.Switches = append(spec.Switches, fmt.Sprintf("spine%02d", s))
	}
	for l := 0; l < leaves; l++ {
		leaf := fmt.Sprintf("leaf%02d", l)
		spec.Switches = append(spec.Switches, leaf)
		for s := 0; s < spines; s++ {
			spec.Links = append(spec.Links, [2]string{leaf, fmt.Sprintf("spine%02d", s)})
		}
		for h := 0; h < hostsPerLeaf; h++ {
			host := fmt.Sprintf("h%02d%02d", l, h)
			spec.Hosts[host] = leaf
			if spec.Scheduler == "" {
				spec.Scheduler = host
			}
		}
	}
	return spec, spec.Validate()
}
