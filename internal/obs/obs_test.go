package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %v", g.Value())
	}
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.Set(-1)
	if g.Value() != -1 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 1, 1, 1} // le=1: {0.5, 1}; le=2: {1.5}; le=4: {3}; +Inf: {100}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if math.Abs(s.Sum-106) > 1e-9 {
		t.Fatalf("sum = %v", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 30)) // uniform over [0,30)
	}
	p50 := h.Quantile(0.5)
	if p50 < 10 || p50 > 20 {
		t.Fatalf("p50 = %v, want within [10,20]", p50)
	}
	// Empty histogram: NaN, and 0 as a duration.
	empty := NewHistogram([]float64{1})
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty quantile not NaN")
	}
	if d := empty.Snapshot().QuantileDuration(0.5); d != 0 {
		t.Fatalf("empty duration quantile = %v", d)
	}
	// Everything in +Inf saturates at the last finite bound.
	sat := NewHistogram([]float64{1, 2})
	sat.Observe(50)
	if got := sat.Quantile(0.99); got != 2 {
		t.Fatalf("saturated quantile = %v, want 2", got)
	}
}

func TestHistogramObserveDurationAndLatencyBuckets(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	h.ObserveDuration(3 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d", s.Count)
	}
	if got := s.QuantileDuration(0.5); got < time.Millisecond || got > 10*time.Millisecond {
		t.Fatalf("p50 = %v, want ~3ms", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2})
	b := NewHistogram([]float64{1, 2})
	a.Observe(0.5)
	b.Observe(1.5)
	b.Observe(10)
	m, err := a.Snapshot().Merge(b.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 3 || m.Counts[0] != 1 || m.Counts[1] != 1 || m.Counts[2] != 1 {
		t.Fatalf("merged %+v", m)
	}
	c := NewHistogram([]float64{5})
	if _, err := a.Snapshot().Merge(c.Snapshot()); err == nil {
		t.Fatal("mismatched merge accepted")
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v accepted", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter(Opts{Name: "intsched_x_total"})
	c2 := r.Counter(Opts{Name: "intsched_x_total"})
	if c1 != c2 {
		t.Fatal("same series produced distinct counters")
	}
	// Distinct labels are distinct series.
	l1 := r.Counter(Opts{Name: "intsched_y_total", Labels: []Label{{"metric", "delay"}}})
	l2 := r.Counter(Opts{Name: "intsched_y_total", Labels: []Label{{"metric", "bandwidth"}}})
	if l1 == l2 {
		t.Fatal("distinct labels shared a counter")
	}
	// Kind mismatch on an existing series panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch accepted")
			}
		}()
		r.Gauge(Opts{Name: "intsched_x_seconds"})
		r.Histogram(Opts{Name: "intsched_x_seconds"}, nil)
	}()
}

// TestSeriesNameScheme lists, per rule of the series-name scheme, one name
// registration accepts and one it panics on.
func TestSeriesNameScheme(t *testing.T) {
	counter := func(r *Registry, name string) { r.Counter(Opts{Name: name}) }
	counterFn := func(r *Registry, name string) { r.CounterFunc(Opts{Name: name}, func() float64 { return 0 }) }
	gauge := func(r *Registry, name string) { r.Gauge(Opts{Name: name}) }
	gaugeFn := func(r *Registry, name string) { r.GaugeFunc(Opts{Name: name}, func() float64 { return 0 }) }
	histogram := func(r *Registry, name string) { r.Histogram(Opts{Name: name}, nil) }
	for _, c := range []struct {
		rule     string
		register func(*Registry, string)
		name     string
		ok       bool
	}{
		{"intsched_ prefix", counter, "intsched_probes_received_total", true},
		{"intsched_ prefix", counter, "probes_received_total", false},
		{"intsched_ prefix", counter, "intsched_", false},
		{"snake_case", counter, "intschedProbes_total", false},
		{"snake_case", counter, "intsched_Probes_total", false},
		{"snake_case", counter, "intsched__probes_total", false},
		{"snake_case", counter, "intsched_probes total", false},
		{"snake_case", counter, "", false},
		{"counters end in _total", counter, "intsched_probes_received", false},
		{"counters end in _total", counterFn, "intsched_acks_sent_total", true},
		{"counters end in _total", counterFn, "intsched_probes_dropped", false},
		{"gauges never end in _total", gauge, "intsched_queue_depth_packets", true},
		{"gauges never end in _total", gauge, "intsched_collector_epoch", true},
		{"gauges never end in _total", gauge, "intsched_drops_total", false},
		{"gauges never end in _total", gaugeFn, "intsched_drops_total", false},
		{"histograms end in a unit", histogram, "intsched_query_latency_seconds", true},
		{"histograms end in a unit", histogram, "intsched_query_latency", false},
		{"no histogram-exposition suffix", gauge, "intsched_queue_count", false},
		{"no histogram-exposition suffix", gauge, "intsched_queue_sum", false},
		{"no histogram-exposition suffix", gauge, "intsched_queue_bucket", false},
	} {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			c.register(NewRegistry(), c.name)
			return
		}()
		if panicked == c.ok {
			t.Errorf("%s: %q accepted=%v, want %v", c.rule, c.name, !panicked, c.ok)
		}
	}
}

func TestRegistrySnapshotSortedAndKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter(Opts{Name: "intsched_b_total", Help: "b help"}).Add(2)
	r.Gauge(Opts{Name: "intsched_a_gauge"}).Set(1.5)
	r.GaugeFunc(Opts{Name: "intsched_c_fn"}, func() float64 { return 7 })
	r.CounterFunc(Opts{Name: "intsched_d_fn_total"}, func() float64 { return 9 })
	r.Histogram(Opts{Name: "intsched_h_seconds"}, []float64{1}).Observe(0.5)

	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d series", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Series() >= snap[i].Series() {
			t.Fatalf("snapshot unsorted: %q >= %q", snap[i-1].Series(), snap[i].Series())
		}
	}
	byName := map[string]MetricSnapshot{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if byName["intsched_b_total"].Value != 2 || byName["intsched_b_total"].Kind != KindCounter {
		t.Fatalf("counter snapshot %+v", byName["intsched_b_total"])
	}
	if byName["intsched_a_gauge"].Value != 1.5 || byName["intsched_c_fn"].Value != 7 || byName["intsched_d_fn_total"].Value != 9 {
		t.Fatalf("gauge/func snapshots %+v", byName)
	}
	if h := byName["intsched_h_seconds"].Histogram; h == nil || h.Count != 1 {
		t.Fatalf("histogram snapshot %+v", byName["intsched_h_seconds"])
	}
}

func TestFindHistogramMergesLabels(t *testing.T) {
	r := NewRegistry()
	r.Histogram(Opts{Name: "intsched_q_seconds", Labels: []Label{{"metric", "delay"}}}, []float64{1, 2}).Observe(0.5)
	r.Histogram(Opts{Name: "intsched_q_seconds", Labels: []Label{{"metric", "bandwidth"}}}, []float64{1, 2}).Observe(1.5)
	m, ok := r.FindHistogram("intsched_q_seconds")
	if !ok || m.Count != 2 {
		t.Fatalf("merged %+v ok=%v", m, ok)
	}
	if _, ok := r.FindHistogram("missing"); ok {
		t.Fatal("missing histogram found")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter(Opts{Name: "intsched_probes_total", Help: "probes received"}).Add(3)
	r.Histogram(Opts{Name: "intsched_lat_seconds", Labels: []Label{{"metric", "delay"}}}, []float64{1, 2}).Observe(1.5)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP intsched_probes_total probes received",
		"# TYPE intsched_probes_total counter",
		"intsched_probes_total 3",
		"# TYPE intsched_lat_seconds histogram",
		`intsched_lat_seconds_bucket{metric="delay",le="1"} 0`,
		`intsched_lat_seconds_bucket{metric="delay",le="2"} 1`,
		`intsched_lat_seconds_bucket{metric="delay",le="+Inf"} 1`,
		`intsched_lat_seconds_sum{metric="delay"} 1.5`,
		`intsched_lat_seconds_count{metric="delay"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHealthEvaluate(t *testing.T) {
	var h Health
	if rep := h.Evaluate(); rep.Degraded() || rep.Status != HealthOK {
		t.Fatalf("empty health %+v", rep)
	}
	var failing bool
	h.Register("probe-liveness", func() []string {
		if failing {
			return []string{"no probes from edge e3 for 812ms"}
		}
		return nil
	})
	h.Register("always-ok", func() []string { return nil })
	if rep := h.Evaluate(); rep.Degraded() {
		t.Fatalf("healthy checks degraded: %+v", rep)
	}
	failing = true
	rep := h.Evaluate()
	if !rep.Degraded() || len(rep.Reasons) != 1 || !strings.Contains(rep.Reasons[0], "e3") {
		t.Fatalf("degraded report %+v", rep)
	}
}
