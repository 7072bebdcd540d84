package experiment

import (
	"fmt"

	"intsched/internal/simtime"
)

// Parametric fabric generators: a three-stage Clos (pods of ToR and
// aggregation switches under a core layer) and a two-level metro-edge
// fabric (regions of pods of ToRs, ringed gateways).
// Both are seeded: per-link propagation delays carry deterministic jitter
// drawn from simtime.NewRand, so equal seeds reproduce byte-identical specs
// and different seeds produce genuinely different fabrics.

// ClosConfig parameterizes ClosSpec. Zero values take the defaults noted on
// each field.
type ClosConfig struct {
	// Pods is the pod count (default 16).
	Pods int
	// Cores is the core-switch count (default 16).
	Cores int
	// AggsPerPod is the aggregation layer width per pod (default 4).
	AggsPerPod int
	// TorsPerPod is the ToR count per pod (default 8).
	TorsPerPod int
	// HostsPerTor is the edge-server count per ToR (default 2).
	HostsPerTor int
	// Seed drives the per-link delay jitter.
	Seed int64
	// BaseDelayUs is the mean per-link delay in microseconds (default 500).
	BaseDelayUs int64
	// JitterPct spreads each link's delay uniformly within ±pct% of the
	// base (default 20).
	JitterPct int
}

func (c ClosConfig) withDefaults() ClosConfig {
	if c.Pods <= 0 {
		c.Pods = 16
	}
	if c.Cores <= 0 {
		c.Cores = 16
	}
	if c.AggsPerPod <= 0 {
		c.AggsPerPod = 4
	}
	if c.TorsPerPod <= 0 {
		c.TorsPerPod = 8
	}
	if c.HostsPerTor <= 0 {
		c.HostsPerTor = 2
	}
	if c.BaseDelayUs <= 0 {
		c.BaseDelayUs = 500
	}
	if c.JitterPct <= 0 {
		c.JitterPct = 20
	}
	return c
}

// jitteredDelays draws one delay per link: base ± jitterPct%, never below
// 1 µs. The stream name isolates the draw sequence per generator.
func jitteredDelays(seed int64, stream string, n int, baseUs int64, jitterPct int) []int64 {
	rng := simtime.NewRand(seed).Stream(stream)
	out := make([]int64, n)
	spread := float64(baseUs) * float64(jitterPct) / 100
	for i := range out {
		d := int64(float64(baseUs) + rng.Uniform(-spread, spread))
		if d < 1 {
			d = 1
		}
		out[i] = d
	}
	return out
}

// ClosSpec generates a three-stage Clos fabric: every pod's aggregation
// switches connect to every core switch, every ToR to every aggregation
// switch in its pod, and HostsPerTor edge servers hang off each ToR. The
// lexicographically first host is the scheduler.
func ClosSpec(cfg ClosConfig) (*TopoSpec, error) {
	cfg = cfg.withDefaults()
	spec := &TopoSpec{
		Name:  fmt.Sprintf("clos-p%dc%da%dt%dh%d-seed%d", cfg.Pods, cfg.Cores, cfg.AggsPerPod, cfg.TorsPerPod, cfg.HostsPerTor, cfg.Seed),
		Hosts: make(map[string]string),
	}
	for c := 0; c < cfg.Cores; c++ {
		core := fmt.Sprintf("core%02d", c)
		spec.Switches = append(spec.Switches, core)
	}
	for p := 0; p < cfg.Pods; p++ {
		for a := 0; a < cfg.AggsPerPod; a++ {
			agg := fmt.Sprintf("p%02da%02d", p, a)
			spec.Switches = append(spec.Switches, agg)
			for c := 0; c < cfg.Cores; c++ {
				spec.Links = append(spec.Links, [2]string{agg, fmt.Sprintf("core%02d", c)})
			}
		}
		for t := 0; t < cfg.TorsPerPod; t++ {
			tor := fmt.Sprintf("p%02dt%02d", p, t)
			spec.Switches = append(spec.Switches, tor)
			for a := 0; a < cfg.AggsPerPod; a++ {
				spec.Links = append(spec.Links, [2]string{tor, fmt.Sprintf("p%02da%02d", p, a)})
			}
			for h := 0; h < cfg.HostsPerTor; h++ {
				host := fmt.Sprintf("h%02d%02d%02d", p, t, h)
				spec.Hosts[host] = tor
				if spec.Scheduler == "" {
					spec.Scheduler = host
				}
			}
		}
	}
	spec.LinkDelayUs = jitteredDelays(cfg.Seed, "clos-link-delay", len(spec.Links), cfg.BaseDelayUs, cfg.JitterPct)
	return spec, spec.Validate()
}

// MetroConfig parameterizes MetroSpec. Zero values take the defaults noted
// on each field.
type MetroConfig struct {
	// Regions is the metro-region count; region gateways form a ring
	// (default 4).
	Regions int
	// PodsPerRegion is the pod-switch count under each gateway (default 4).
	PodsPerRegion int
	// TorsPerPod is the ToR count under each pod switch (default 8).
	TorsPerPod int
	// ServersPerTor is the edge-server count per ToR (default 8).
	ServersPerTor int
	// Seed drives the per-link delay jitter.
	Seed int64
	// BaseDelayUs is the mean intra-region link delay in microseconds
	// (default 200); inter-region ring links get 10x.
	BaseDelayUs int64
	// JitterPct spreads each link's delay uniformly within ±pct% of its
	// base (default 20).
	JitterPct int
}

func (c MetroConfig) withDefaults() MetroConfig {
	if c.Regions <= 0 {
		c.Regions = 4
	}
	if c.PodsPerRegion <= 0 {
		c.PodsPerRegion = 4
	}
	if c.TorsPerPod <= 0 {
		c.TorsPerPod = 8
	}
	if c.ServersPerTor <= 0 {
		c.ServersPerTor = 8
	}
	if c.BaseDelayUs <= 0 {
		c.BaseDelayUs = 200
	}
	if c.JitterPct <= 0 {
		c.JitterPct = 20
	}
	return c
}

// MetroSpec generates a two-level metro-edge fabric: region gateway
// switches in a ring (inter-region links are 10x slower), pod switches
// under each gateway, ToRs under each pod, and ServersPerTor edge servers
// per ToR. A dedicated "sched" host on region 0's gateway runs the
// scheduler.
func MetroSpec(cfg MetroConfig) (*TopoSpec, error) {
	cfg = cfg.withDefaults()
	spec := &TopoSpec{
		Name:      fmt.Sprintf("metro-r%dp%dt%ds%d-seed%d", cfg.Regions, cfg.PodsPerRegion, cfg.TorsPerPod, cfg.ServersPerTor, cfg.Seed),
		Scheduler: "sched",
		Hosts:     make(map[string]string),
	}
	for r := 0; r < cfg.Regions; r++ {
		gw := fmt.Sprintf("r%02dgw", r)
		spec.Switches = append(spec.Switches, gw)
		if cfg.Regions > 1 && (r+1 < cfg.Regions || cfg.Regions > 2) {
			// Ring edge to the next region (skip the closing edge when it
			// would duplicate the only edge of a two-region "ring").
			spec.Links = append(spec.Links, [2]string{gw, fmt.Sprintf("r%02dgw", (r+1)%cfg.Regions)})
		}
		for p := 0; p < cfg.PodsPerRegion; p++ {
			pod := fmt.Sprintf("r%02dp%02d", r, p)
			spec.Switches = append(spec.Switches, pod)
			spec.Links = append(spec.Links, [2]string{pod, gw})
			for t := 0; t < cfg.TorsPerPod; t++ {
				tor := fmt.Sprintf("r%02dp%02dt%02d", r, p, t)
				spec.Switches = append(spec.Switches, tor)
				spec.Links = append(spec.Links, [2]string{tor, pod})
				for e := 0; e < cfg.ServersPerTor; e++ {
					server := fmt.Sprintf("e%02d%02d%02d%02d", r, p, t, e)
					spec.Hosts[server] = tor
				}
			}
		}
	}
	spec.Hosts["sched"] = "r00gw"
	spec.LinkDelayUs = jitteredDelays(cfg.Seed, "metro-link-delay", len(spec.Links), cfg.BaseDelayUs, cfg.JitterPct)
	// Inter-region ring links run at 10x the base delay (metro distances).
	for i, l := range spec.Links {
		if len(l[0]) == 5 && len(l[1]) == 5 { // both r%02dgw gateways
			spec.LinkDelayUs[i] *= 10
		}
	}
	return spec, spec.Validate()
}
