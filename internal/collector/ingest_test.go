package collector

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"intsched/internal/telemetry"
)

// fanIn is many probe streams crossing one shared device: every probe makes
// the device flush all of its port registers, so each port's window holds
// one report per stream per probing interval.
type fanIn struct {
	clk      *fakeClock
	c        *Collector
	probes   []*telemetry.ProbePayload
	interval time.Duration
}

func newFanIn(streams, ports int) *fanIn {
	f := &fanIn{clk: &fakeClock{now: time.Second}, interval: 100 * time.Millisecond}
	f.c = New("sched", f.clk.Now, Config{QueueWindow: 2 * f.interval})
	for s := 0; s < streams; s++ {
		rec := telemetry.Record{Device: "core", IngressPort: s % ports, EgressPort: ports, LinkLatency: time.Millisecond}
		for p := 0; p < ports; p++ {
			rec.Queues = append(rec.Queues, telemetry.PortQueue{Port: p, MaxQueue: (s + p) % 7})
		}
		probe := &telemetry.ProbePayload{Origin: fmt.Sprintf("h%03d", s)}
		probe.Stack.Append(rec)
		f.probes = append(f.probes, probe)
	}
	return f
}

// round ingests one probe of every stream, staggered across one interval.
func (f *fanIn) round() {
	step := f.interval / time.Duration(len(f.probes))
	for _, p := range f.probes {
		f.clk.now += step
		p.Seq++
		p.Stack.Records[0].EgressTS = f.clk.now - time.Millisecond
		f.c.HandleProbe(p)
	}
}

// TestIngestCostIndependentOfFanIn: what a probe costs to ingest depends on
// the records and port values it carries, not on how many other streams'
// reports share its ports' windows. 256 streams cross one 8-port device, so
// each port window holds ~512 reports; a probe must not copy them.
func TestIngestCostIndependentOfFanIn(t *testing.T) {
	const streams, ports = 256, 8
	f := newFanIn(streams, ports)
	for i := 0; i < 30; i++ {
		f.round()
	}
	if q, ok := f.c.MaxQueue("core", 0); !ok || q != 6 {
		t.Fatalf("core port 0 reports (%d,%v), want the streams' maximum 6", q, ok)
	}
	// Nobody has taken a snapshot: ingest alone must keep the flush events
	// to those of about one window (two intervals; a probe is one event).
	if n := f.c.flushes.n; n > 4*streams {
		t.Fatalf("%d flush events held after 30 unread rounds of %d", n, streams)
	}

	allocs := testing.AllocsPerRun(10, f.round) / streams
	if allocs > 4 {
		t.Errorf("%.2f allocations per probe, want at most 4", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		f.round()
	}
	runtime.ReadMemStats(&after)
	perProbe := (after.TotalAlloc - before.TotalAlloc) / (10 * streams)
	if perProbe > 4<<10 {
		t.Errorf("%d bytes allocated per probe, want at most 4 KB", perProbe)
	}
	t.Logf("per probe: %.2f allocations, %d bytes", allocs, perProbe)
}
