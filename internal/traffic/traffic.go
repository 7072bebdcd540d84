// Package traffic injects background congestion into the simulated network,
// reproducing the paper's iperf-based scenarios:
//
//   - Random background (main experiments): at any time one or two iperf
//     transfers run between randomly selected nodes for 30 or 60 seconds,
//     congesting different regions of the network over time.
//   - Traffic 1 (Fig 9, infrequent): three transfers cycling 30 s on /
//     30 s off, started 10 s apart.
//   - Traffic 2 (Fig 9, frequent): three transfers cycling 5 s on / 5 s off.
//
// Like the workload generator, traffic schedules are deterministic for a
// given seed and are replayed identically across scheduling algorithms.
package traffic

import (
	"time"

	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/transport"
)

// DefaultRateBps is the default iperf flow rate. The paper's links max out
// at 20 Mbps (the BMv2 ceiling); a 18 Mbps background flow congests its
// path without fully starving it.
const DefaultRateBps = 18_000_000

// Config tunes background traffic generation.
type Config struct {
	// RateBps is the per-flow sending rate (DefaultRateBps when zero).
	RateBps int64
}

func (c Config) rate() int64 {
	if c.RateBps > 0 {
		return c.RateBps
	}
	return DefaultRateBps
}

// Background drives a set of flow slots until stopped.
type Background struct {
	domain *transport.Domain
	nodes  []netsim.NodeID
	rng    *simtime.Rand
	cfg    Config

	stopped bool
	active  []*transport.CBR

	// FlowsStarted counts flows launched over the generator's lifetime.
	FlowsStarted int
}

// StartRandom launches the main experiments' background pattern over the
// given candidate nodes: slot 0 always has a flow running (30 s or 60 s,
// random endpoints); slot 1 alternates between an idle gap of 0–30 s and a
// flow, so one or two flows are active at any time.
func StartRandom(domain *transport.Domain, nodes []netsim.NodeID, rng *simtime.Rand, cfg Config) *Background {
	b := &Background{domain: domain, nodes: nodes, rng: rng.Stream("traffic-random"), cfg: cfg}
	b.runSlot(0, false)
	b.runSlot(1, true)
	return b
}

func (b *Background) runSlot(slot int, withGaps bool) {
	if b.stopped {
		return
	}
	start := func() {
		if b.stopped {
			return
		}
		src, dst := b.randomPair()
		dur := 30 * time.Second
		if b.rng.Intn(2) == 1 {
			dur = 60 * time.Second
		}
		flow := b.launch(src, dst, dur)
		flow.OnStop = func(*transport.CBR) { b.runSlot(slot, withGaps) }
	}
	if withGaps {
		gap := time.Duration(b.rng.Uniform(0, 30)) * time.Second
		b.domain.Network().Engine().After(gap, start)
	} else {
		start()
	}
}

func (b *Background) randomPair() (src, dst netsim.NodeID) {
	pair := simtime.PickN(b.rng, b.nodes, 2)
	return pair[0], pair[1]
}

func (b *Background) launch(src, dst netsim.NodeID, dur time.Duration) *transport.CBR {
	stack := b.domain.Stack(src)
	flow := stack.StartCBR(dst, transport.CBRConfig{
		RateBps:  b.cfg.rate(),
		Duration: dur,
		Jitter:   b.rng,
	})
	b.FlowsStarted++
	b.active = append(b.active, flow)
	return flow
}

// Stop halts all background traffic.
func (b *Background) Stop() {
	b.stopped = true
	for _, f := range b.active {
		if f.Active() {
			f.OnStop = nil
			f.Stop()
		}
	}
	b.active = nil
}

// PatternConfig describes an on/off cycling flow set (Fig 9's Traffic 1 and
// Traffic 2).
type PatternConfig struct {
	// Flows is the number of concurrent cycling flows (the paper uses 3).
	Flows int
	// On and Off are the transfer and sleep durations of each cycle.
	On, Off time.Duration
	// Stagger delays flow i's first cycle by i × Stagger so the degree of
	// background congestion varies over time (the paper staggers Traffic 1
	// by 10 s).
	Stagger time.Duration
	// Traffic tunes the flows themselves.
	Traffic Config
}

// Traffic1 returns the paper's infrequently changing background pattern:
// three 30 s transfers with 30 s sleeps, staggered 10 s apart.
func Traffic1() PatternConfig {
	return PatternConfig{Flows: 3, On: 30 * time.Second, Off: 30 * time.Second, Stagger: 10 * time.Second}
}

// Traffic2 returns the paper's frequently changing background pattern:
// three 5 s transfers with 5 s sleeps, staggered 2 s apart.
func Traffic2() PatternConfig {
	return PatternConfig{Flows: 3, On: 5 * time.Second, Off: 5 * time.Second, Stagger: 2 * time.Second}
}

// StartPattern launches an on/off cycling background pattern. Each cycle
// picks fresh random endpoints, so congestion moves around the network.
func StartPattern(domain *transport.Domain, nodes []netsim.NodeID, rng *simtime.Rand, cfg PatternConfig) *Background {
	b := &Background{domain: domain, nodes: nodes, rng: rng.Stream("traffic-pattern"), cfg: cfg.Traffic}
	engine := domain.Network().Engine()
	for i := 0; i < cfg.Flows; i++ {
		delay := time.Duration(i) * cfg.Stagger
		engine.After(delay, func() { b.runCycle(cfg) })
	}
	return b
}

func (b *Background) runCycle(cfg PatternConfig) {
	if b.stopped {
		return
	}
	src, dst := b.randomPair()
	flow := b.launch(src, dst, cfg.On)
	flow.OnStop = func(*transport.CBR) {
		if b.stopped {
			return
		}
		b.domain.Network().Engine().After(cfg.Off, func() { b.runCycle(cfg) })
	}
}
