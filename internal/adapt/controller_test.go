package adapt

import (
	"reflect"
	"testing"
	"time"
)

const base = 100 * time.Millisecond

func sig(origin, target string, age time.Duration) Signal {
	return Signal{Origin: origin, Target: target, Age: age}
}

// one evaluation with a fresh stream registers it at the base cadence and
// emits nothing.
func TestNewStreamStartsAtBase(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	dirs := c.Decide([]Signal{sig("n1", "ctl", base)})
	if len(dirs) != 0 {
		t.Fatalf("fresh stream emitted %v, want none", dirs)
	}
	cs := c.Cadences()
	if cs.BaseStreams != 1 || cs.TightStreams != 0 || cs.BackoffStreams != 0 {
		t.Fatalf("cadence summary %+v, want one base stream", cs)
	}
}

func TestSilenceTightensToMin(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	c.Decide([]Signal{sig("n1", "ctl", base)})
	// Age beyond SilenceIntervals × current interval: the stream is silent.
	dirs := c.Decide([]Signal{sig("n1", "ctl", 4*base)})
	if len(dirs) != 1 {
		t.Fatalf("got %d directives, want 1", len(dirs))
	}
	d := dirs[0]
	if d.Interval != base/4 || d.Reason != ReasonSilence {
		t.Fatalf("directive %+v, want interval %v reason silence", d, base/4)
	}
	if st := c.Stats(); st.SilenceTightens != 1 {
		t.Fatalf("SilenceTightens = %d, want 1", st.SilenceTightens)
	}
}

func TestChurnHalvesInterval(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	c.Decide([]Signal{{Origin: "n1", Target: "ctl", Remaps: 2}})
	// A remap delta marks the stream churning: halve toward MinInterval.
	dirs := c.Decide([]Signal{{Origin: "n1", Target: "ctl", Remaps: 3}})
	if len(dirs) != 1 || dirs[0].Interval != base/2 || dirs[0].Reason != ReasonTighten {
		t.Fatalf("directives %+v, want one tighten to %v", dirs, base/2)
	}
	// Repeated churn clamps at MinInterval and then stops emitting.
	c.Decide([]Signal{{Origin: "n1", Target: "ctl", Remaps: 4}})
	dirs = c.Decide([]Signal{{Origin: "n1", Target: "ctl", Remaps: 5}})
	if len(dirs) != 0 {
		t.Fatalf("churn at MinInterval emitted %+v, want none", dirs)
	}
	if iv := c.Cadences(); iv.TightStreams != 1 || iv.TightMicros != float64((base/4).Microseconds()) {
		t.Fatalf("cadence summary %+v, want one tight stream at %v", iv, base/4)
	}
}

func TestQueueVarianceCountsAsChurn(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	c.Decide([]Signal{sig("n1", "ctl", 0)})
	dirs := c.Decide([]Signal{{Origin: "n1", Target: "ctl", QueueVar: DefaultQueueVarThreshold}})
	if len(dirs) != 1 || dirs[0].Reason != ReasonTighten {
		t.Fatalf("directives %+v, want one tighten on queue variance", dirs)
	}
}

func TestEvictionOnPathCountsAsChurn(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	c.Decide([]Signal{sig("n1", "ctl", 0)})
	dirs := c.Decide([]Signal{{Origin: "n1", Target: "ctl", EvictedOnPath: 1}})
	if len(dirs) != 1 || dirs[0].Reason != ReasonTighten {
		t.Fatalf("directives %+v, want one tighten on path eviction", dirs)
	}
}

func TestBackoffAfterStableRounds(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	c.Decide([]Signal{sig("n1", "ctl", 0)}) // register, quiet 1
	dirs := c.Decide([]Signal{sig("n1", "ctl", 0)})
	if len(dirs) != 1 || dirs[0].Interval != 2*base || dirs[0].Reason != ReasonBackoff {
		t.Fatalf("directives %+v, want one backoff to %v after %d quiet rounds",
			dirs, 2*base, DefaultStableRounds)
	}
	// Two more quiet rounds double again; two more after that are clamped
	// at MaxInterval and emit nothing.
	c.Decide([]Signal{sig("n1", "ctl", 0)})
	dirs = c.Decide([]Signal{sig("n1", "ctl", 0)})
	if len(dirs) != 1 || dirs[0].Interval != 4*base {
		t.Fatalf("directives %+v, want one backoff to max %v", dirs, 4*base)
	}
	c.Decide([]Signal{sig("n1", "ctl", 0)})
	dirs = c.Decide([]Signal{sig("n1", "ctl", 0)})
	if len(dirs) != 0 {
		t.Fatalf("backoff at MaxInterval emitted %+v, want none", dirs)
	}
}

// A backed-off stream must never stay backed off once it goes silent: the
// silence rule overrides, dropping straight to MinInterval.
func TestSilenceOverridesBackoff(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	c.Decide([]Signal{sig("n1", "ctl", 0)})
	c.Decide([]Signal{sig("n1", "ctl", 0)}) // backed off to 2×base
	// Age just over SilenceIntervals × the backed-off interval.
	dirs := c.Decide([]Signal{sig("n1", "ctl", 7*base)})
	if len(dirs) != 1 || dirs[0].Interval != base/4 || dirs[0].Reason != ReasonSilence {
		t.Fatalf("directives %+v, want silence drop to %v", dirs, base/4)
	}
}

func TestFanOutPullsSharedDeviceStreams(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	quiet := Signal{Origin: "n1", Target: "ctl", Devices: []string{"s1", "s2"}}
	other := Signal{Origin: "n2", Target: "ctl", Devices: []string{"s2", "s3"}}
	c.Decide([]Signal{quiet, other})
	c.Decide([]Signal{quiet, other}) // both back off to 2×base
	// n2's path churns; n1 shares device s2 and must fall back to base.
	churned := other
	churned.Remaps = 1
	dirs := c.Decide([]Signal{quiet, churned})
	want := map[string]struct {
		interval time.Duration
		reason   Reason
	}{
		"n1": {base, ReasonFanOut},
		"n2": {base, ReasonTighten},
	}
	if len(dirs) != len(want) {
		t.Fatalf("got %d directives %+v, want %d", len(dirs), dirs, len(want))
	}
	for _, d := range dirs {
		w := want[d.Origin]
		if d.Interval != w.interval || d.Reason != w.reason {
			t.Fatalf("directive %+v, want interval %v reason %v", d, w.interval, w.reason)
		}
	}
	// A stream with no shared device is left alone.
	far := Signal{Origin: "n3", Target: "ctl", Devices: []string{"s9"}}
	c = NewController(Config{BaseInterval: base})
	c.Decide([]Signal{far, other})
	c.Decide([]Signal{far, other})
	dirs = c.Decide([]Signal{far, churned})
	for _, d := range dirs {
		if d.Origin == "n3" {
			t.Fatalf("unrelated stream got directive %+v", d)
		}
	}
}

// The budget allocator grows backed-off streams before base-cadence ones and
// tightened streams last, in (priority, origin, target) order.
func TestBudgetAllocatorPriorityOrder(t *testing.T) {
	// Budget of 3 streams × base rate would be 30/s; cap at 17.5/s forces
	// the allocator to slow the backed-off stream (n3) and then one base
	// stream (n1 before n2 by name) while the tightened stream keeps pace.
	c := NewController(Config{BaseInterval: base, MaxProbesPerSec: 17.5})
	s1 := Signal{Origin: "n1", Target: "ctl"}
	s2 := Signal{Origin: "n2", Target: "ctl"}
	s3 := Signal{Origin: "n3", Target: "ctl", Remaps: 0}
	c.Decide([]Signal{s1, s2, s3})
	s3churn := s3
	s3churn.Remaps = 1
	dirs := c.Decide([]Signal{s1, s2, s3churn})
	got := map[string]time.Duration{}
	for _, d := range dirs {
		got[d.Origin] = d.Interval
	}
	// Rates: n3 tightens to 50ms (20/s); n1 and n2 back off to 200ms (5/s
	// each) for 30/s total. The allocator grows the backoffs first (n1 then
	// n2, 200→400ms, down to 25/s) and only then touches the tightened n3
	// (50→100ms, 15/s ≤ cap).
	want := map[string]time.Duration{"n1": 4 * base, "n2": 4 * base, "n3": base}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("allocated intervals %v, want %v", got, want)
	}
	st := c.Stats()
	if st.BudgetClamps == 0 {
		t.Fatalf("stats %+v, want budget clamps recorded", st)
	}
	if st.ProbeRate > 17.5 {
		t.Fatalf("allocated rate %.2f exceeds cap", st.ProbeRate)
	}
	if st.BudgetUtilization <= 0 || st.BudgetUtilization > 1 {
		t.Fatalf("budget utilization %.2f outside (0, 1]", st.BudgetUtilization)
	}
}

func TestBytesBudgetConvertsToProbeRate(t *testing.T) {
	// 2 streams at base = 20/s. MaxBytesPerSec 15000 at 1500 B/probe = 10/s
	// cap: both streams must double.
	c := NewController(Config{BaseInterval: base, MaxBytesPerSec: 15000})
	dirs := c.Decide([]Signal{sig("n1", "ctl", 0), sig("n2", "ctl", 0)})
	if len(dirs) != 2 {
		t.Fatalf("got %d directives, want both streams grown", len(dirs))
	}
	for _, d := range dirs {
		if d.Interval != 2*base || d.Reason != ReasonBudget {
			t.Fatalf("directive %+v, want budget grow to %v", d, 2*base)
		}
	}
}

// Identical signal sequences through fresh controllers yield byte-identical
// directive sequences — the determinism contract behind the CI digest diff.
func TestDecideIsDeterministic(t *testing.T) {
	rounds := [][]Signal{
		{sig("n1", "ctl", 0), sig("n2", "ctl", 0), {Origin: "n3", Target: "ctl", Devices: []string{"s1"}}},
		{sig("n1", "ctl", 0), {Origin: "n2", Target: "ctl", Remaps: 1, Devices: []string{"s1"}}, {Origin: "n3", Target: "ctl", Devices: []string{"s1"}}},
		{sig("n1", "ctl", 9*base), sig("n2", "ctl", 0), {Origin: "n3", Target: "ctl", Devices: []string{"s1"}}},
	}
	run := func() [][]Directive {
		c := NewController(Config{BaseInterval: base, MaxProbesPerSec: 25})
		var out [][]Directive
		for _, r := range rounds {
			rc := make([]Signal, len(r))
			copy(rc, r)
			out = append(out, c.Decide(rc))
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replayed directives diverged:\n%v\nvs\n%v", a, b)
	}
}

func TestSeqStrictlyIncreases(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	var last uint64
	for i := 0; i < 6; i++ {
		age := time.Duration(0)
		if i%2 == 1 {
			age = 9 * base // alternate silence and recovery to force churn
		}
		for _, d := range c.Decide([]Signal{sig("n1", "ctl", age), sig("n2", "ctl", age)}) {
			if d.Seq <= last {
				t.Fatalf("seq %d not greater than previous %d", d.Seq, last)
			}
			last = d.Seq
		}
	}
	if last == 0 {
		t.Fatal("no directives emitted; test exercised nothing")
	}
}

// Streams absent from the signal set are forgotten and restart at base.
func TestStatePrunedForVanishedStreams(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	c.Decide([]Signal{sig("n1", "ctl", 0)})
	c.Decide([]Signal{sig("n1", "ctl", 0)}) // backed off to 2×base
	c.Decide([]Signal{sig("n2", "ctl", 0)}) // n1 gone: state dropped
	if cs := c.Cadences(); cs.BackoffStreams != 0 || cs.BaseStreams != 1 {
		t.Fatalf("cadence summary %+v, want only n2 at base", cs)
	}
	dirs := c.Decide([]Signal{sig("n1", "ctl", 0), sig("n2", "ctl", 0)})
	for _, d := range dirs {
		if d.Origin == "n1" {
			t.Fatalf("reappeared stream emitted %+v before re-earning a change", d)
		}
	}
}

// A remap counter that goes backwards (stream restart) is a fresh baseline,
// not churn.
func TestCounterRegressionIsNotChurn(t *testing.T) {
	c := NewController(Config{BaseInterval: base})
	c.Decide([]Signal{{Origin: "n1", Target: "ctl", Remaps: 10}})
	// The regression round counts as quiet — the stream may back off, but
	// must not tighten.
	for _, d := range c.Decide([]Signal{{Origin: "n1", Target: "ctl", Remaps: 1}}) {
		if d.Reason == ReasonTighten {
			t.Fatalf("counter regression tightened: %+v", d)
		}
	}
	// The regressed value is the new baseline: a later increment is churn.
	dirs := c.Decide([]Signal{{Origin: "n1", Target: "ctl", Remaps: 2}})
	if len(dirs) != 1 || dirs[0].Reason != ReasonTighten {
		t.Fatalf("directives %+v, want one tighten after the new baseline", dirs)
	}
}

func TestConfigDefaultsAndClamps(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.BaseInterval != DefaultBaseInterval ||
		cfg.MinInterval != DefaultBaseInterval/4 ||
		cfg.MaxInterval != 4*DefaultBaseInterval ||
		cfg.EvalInterval != 5*DefaultBaseInterval {
		t.Fatalf("defaults %+v", cfg)
	}
	// Inverted bounds are pulled back to the base interval.
	cfg = Config{BaseInterval: base, MinInterval: 2 * base, MaxInterval: base / 2}.withDefaults()
	if cfg.MinInterval != base || cfg.MaxInterval != base {
		t.Fatalf("clamped config %+v, want min=max=base", cfg)
	}
}

func TestReasonStrings(t *testing.T) {
	want := map[Reason]string{
		ReasonNone: "none", ReasonTighten: "tighten", ReasonSilence: "silence",
		ReasonFanOut: "fanout", ReasonBackoff: "backoff", ReasonBudget: "budget",
	}
	for r, s := range want {
		if r.String() != s {
			t.Fatalf("Reason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}
