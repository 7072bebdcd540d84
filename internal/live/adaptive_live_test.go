package live

import (
	"testing"
	"time"

	"intsched/internal/obs"
	"intsched/internal/telemetry"
	"intsched/internal/wire"
)

// An adaptive overlay: directives decided by the daemon ride the probe
// return path back through the switches and actually change agent cadences.
func TestAdaptiveDirectivesReachAgents(t *testing.T) {
	spec := chainSpec()
	spec.Adaptive = true
	// Half the static budget: with every stream quiet on an idle overlay,
	// the controller must slow cadences (back-off plus budget clamps), so
	// every agent ends up above the 20 ms base interval.
	spec.ProbeBudget = 0.5
	o, err := StartOverlay(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	base := spec.ProbeInterval
	waitFor(t, 10*time.Second, func() bool {
		for _, a := range o.Agents {
			if a.Interval() <= base {
				return false
			}
		}
		return true
	}, "every agent backed off past the base cadence")
	for _, a := range o.Agents {
		if a.DirectivesApplied() == 0 {
			t.Fatalf("agent %s backed off without applying a directive", a.ID())
		}
		if iv := a.Interval(); iv > 4*base {
			t.Fatalf("agent %s interval %v beyond the 4×base clamp", a.ID(), iv)
		}
	}

	// The daemon's controller state must be visible through /metrics-backed
	// accessors: directives were sent and the cadence gauges moved.
	found := map[string]bool{}
	for _, m := range o.Daemon.Metrics().Snapshot() {
		switch m.Name {
		case "intsched_cadence_directives_sent_total":
			if m.Value == 0 {
				t.Fatal("directives applied but none counted as sent")
			}
			found[m.Name] = true
		case "intsched_probe_cadence_us":
			if labelValue(m, "class") == "backoff" && m.Value > 0 {
				found[m.Name] = true
			}
		case "intsched_probe_budget_utilization":
			if m.Value > 0 && m.Value <= 1.01 {
				found[m.Name] = true
			}
		}
	}
	for _, name := range []string{
		"intsched_cadence_directives_sent_total",
		"intsched_probe_cadence_us",
		"intsched_probe_budget_utilization",
	} {
		if !found[name] {
			t.Fatalf("metric %s missing or never moved", name)
		}
	}
}

func labelValue(m obs.MetricSnapshot, key string) string {
	for _, l := range m.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// V1 compatibility: an agent that never opted in drops directive datagrams
// on the floor and keeps its static cadence; after opt-in the same frame
// applies, and stale or malformed frames still do not.
func TestAgentDirectiveOptInAndSeqGate(t *testing.T) {
	a, err := NewProbeAgent("e1", "127.0.0.1:9", "sched", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	defer a.Close()

	directive := func(iv time.Duration, seq uint64) *wire.Datagram {
		return &wire.Datagram{
			Kind:    wire.KindDirective,
			TTL:     wire.DefaultTTL,
			Src:     "sched",
			Dst:     "e1",
			Payload: telemetry.EncodeDirective(telemetry.CadenceDirective{Interval: iv, Seq: seq}),
		}
	}

	// Pre-opt-in: dropped silently, static cadence kept.
	a.handle(directive(200*time.Millisecond, 1))
	if iv := a.Interval(); iv != 50*time.Millisecond {
		t.Fatalf("directive applied without opt-in: interval %v", iv)
	}

	a.EnableAdaptive()
	a.handle(directive(200*time.Millisecond, 2))
	if iv := a.Interval(); iv != 200*time.Millisecond {
		t.Fatalf("directive not applied after opt-in: interval %v", iv)
	}
	if a.DirectivesApplied() != 1 {
		t.Fatalf("applied count %d, want 1", a.DirectivesApplied())
	}

	// Stale seq (a reordered datagram) must not roll the cadence back.
	a.handle(directive(20*time.Millisecond, 1))
	if iv := a.Interval(); iv != 200*time.Millisecond {
		t.Fatalf("stale directive rolled cadence back to %v", iv)
	}

	// Malformed frames — truncated, unknown version — decode as
	// no-directive.
	bad := directive(100*time.Millisecond, 3)
	bad.Payload = bad.Payload[:len(bad.Payload)-4]
	a.handle(bad)
	unk := directive(100*time.Millisecond, 4)
	unk.Payload[2] = 0x7f
	a.handle(unk)
	if iv := a.Interval(); iv != 200*time.Millisecond {
		t.Fatalf("malformed directive changed cadence to %v", iv)
	}
	if a.DirectivesApplied() != 1 {
		t.Fatalf("malformed frames counted as applied: %d", a.DirectivesApplied())
	}
}

// TestDaemonRejectsBudgetWithoutController: the probe budget is spent only
// by the cadence controller, so a budget without Adaptive, or one outside
// [0, 1], is refused instead of silently running a static fleet.
func TestDaemonRejectsBudgetWithoutController(t *testing.T) {
	for _, cfg := range []DaemonConfig{
		{ProbeBudget: 0.5},
		{ProbeBudget: 1.5, Adaptive: true},
		{ProbeBudget: -0.25, Adaptive: true},
	} {
		if d, err := NewCollectorDaemon("sched", cfg); err == nil {
			d.Close()
			t.Errorf("budget %v adaptive=%v accepted", cfg.ProbeBudget, cfg.Adaptive)
		}
	}
	d, err := NewCollectorDaemon("sched", DaemonConfig{ProbeBudget: 0.5, Adaptive: true})
	if err != nil {
		t.Fatalf("budget 0.5 with the controller: %v", err)
	}
	d.Close()
}
