package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// sizes fixes how much work each phase of a workload does. fullSize is what
// the benchmark measures; toySize lets the tests run every phase in
// seconds.
type sizes struct {
	closPods     int // Clos pods (generator default of 16 when 0)
	metroRegions int // metro regions (generator default of 4 when 0)

	setupBuilds int // timed from-nothing builds after one untimed build

	simTasks     int // tasks per scenario of sim_paper
	simSetupNets int // Fig 4 networks built and warmed per set-up build

	ingestSetupRounds int // probe rounds ingested per set-up build
	ingestRoundsPerS  int // trace rounds generated per second of window
	ranksPerRound     int // rankings computed after each round's snapshot

	wireSetupRounds int     // probe rounds fed per set-up build
	wireSetupBuilds int     // timed builds of the (schedule-bound) wire set-up
	prerollFactor   float64 // untimed queries, as a multiple of the port range
	parityEvery     int     // compare every n-th wire answer with an in-process one
	candidates      int     // candidates asked for per query
}

var fullSize = sizes{
	setupBuilds:       5,
	simTasks:          10,
	simSetupNets:      128,
	ingestSetupRounds: 6,
	ingestRoundsPerS:  10,
	ranksPerRound:     8,
	wireSetupRounds:   10,
	wireSetupBuilds:   3,
	prerollFactor:     1.5,
	parityEvery:       1000,
	candidates:        8,
}

var toySize = sizes{
	closPods:          2,
	metroRegions:      2,
	setupBuilds:       1,
	simTasks:          4,
	simSetupNets:      2,
	ingestSetupRounds: 2,
	ingestRoundsPerS:  20,
	ranksPerRound:     2,
	wireSetupRounds:   2,
	wireSetupBuilds:   1,
	prerollFactor:     0,
	parityEvery:       10,
	candidates:        4,
}

// window is what one timed stretch of operations produced.
type window struct {
	ops       float64 // operations completed (sim_paper: simulated seconds)
	attempted int     // operations started, as whole units the checks apply to
	failed    int     // of those, how many failed
	// elapsed is the time ops took. It is the window's wall time, except
	// that sim_paper charges every simulation its fastest repetition.
	elapsed time.Duration
	// wall is the wall time of the whole window and repeats how many times
	// it ran its ops (1 except on sim_paper); process counters are spread
	// over ops x repeats.
	wall    time.Duration
	repeats int
	// samples holds one duration per operation, in ns and in the order the
	// operations ran. It belongs to the workload and is overwritten by the
	// next measure call.
	samples []uint32
	// sliceOps cuts samples into slices of that many consecutive
	// operations, each doing the same work; 0 leaves the window whole.
	sliceOps int
	// sliceWall is each slice's duration in seconds, for a workload whose
	// slices do more than their operations; the sum of the slice's samples
	// when nil.
	sliceWall []float64
}

// The host this runs on is shared, and what its other tenants do slows a
// stretch of the window down by tens of percent for seconds at a time; it
// never speeds one up. So a sliced window is summarized by its quiet
// slices: throughput is the rate that a tenth of the slices exceed, and the
// median operation time is that of the slice a tenth of the slices
// undercut. On a quiet host these read like the plain statistics; on a busy
// one they move about half as much (README, rule 3).
const quietDecile = 0.1

// summary is a window's throughput and operation times.
type summary struct {
	opsPerS, p50ns float64
	// p99ns is the 99th percentile over every operation of the window. No
	// estimator tames a tail on this host, so it is a layer metric.
	p99ns  float64
	slices int
}

func (w window) summarize() summary {
	sorted := append([]uint32(nil), w.samples...)
	sortSamples(sorted)
	s := summary{w.ops / w.elapsed.Seconds(), percentile(sorted, 50), percentile(sorted, 99), 1}
	if w.sliceOps == 0 || len(w.samples) < w.sliceOps {
		return s
	}
	s.slices = len(w.samples) / w.sliceOps
	rates, p50s := make([]float64, s.slices), make([]float64, s.slices)
	for k := range rates {
		slice := sorted[k*w.sliceOps : (k+1)*w.sliceOps] // reuse the copy, slice by slice
		copy(slice, w.samples[k*w.sliceOps:])
		var wall float64
		if w.sliceWall != nil {
			wall = w.sliceWall[k]
		} else {
			for _, ns := range slice {
				wall += float64(ns) / 1e9
			}
		}
		sortSamples(slice)
		rates[k] = float64(w.sliceOps) / wall
		p50s[k] = percentile(slice, 50)
	}
	sort.Float64s(rates)
	sort.Float64s(p50s)
	s.opsPerS, s.p50ns = quantile(rates, 1-quietDecile), quantile(p50s, quietDecile)
	return s
}

// workload is one of the benchmark's workloads. The harness drives the
// phases in the order they are declared.
type workload interface {
	// prepare makes the inputs from the seed and allocates everything the
	// generator needs, so that it runs before the heap baseline is read.
	prepare() error
	// build sets the system under test up from nothing, makes it the
	// current one in place of the previous one, and reports how long the
	// set-up took (generator work excluded).
	build() (time.Duration, error)
	// warm brings the current system to the steady state the window
	// assumes. Untimed.
	warm() error
	// measure runs operations on the current system for about d.
	measure(d time.Duration, tr *tracer) (window, error)
	// verify runs the output checks that look at the whole run.
	verify(r *report)
	// layers reports the layer metrics only this workload can observe;
	// plain summarizes the untraced half of the traced run.
	layers(r *report, plain summary) error
	// fixture is the probe trace the isolated layer probes run on.
	fixture() (*probeTrace, error)
	// close releases the current system.
	close()
}

// runConfig selects one workload run.
type runConfig struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
	size    sizes
	outDir  string // where a traced run writes its spans; none when empty
}

// newWorkload returns the named workload and how many set-up builds to time.
func newWorkload(c runConfig) (workload, int, error) {
	switch c.name {
	case "sim_paper":
		return &simPaper{seed: c.seed, size: c.size}, c.size.setupBuilds, nil
	case "ingest_metro":
		return &ingestMetro{seed: c.seed, size: c.size, seconds: c.seconds}, c.size.setupBuilds, nil
	case "wire_quiet_clos":
		return &wireClos{seed: c.seed, size: c.size, seconds: c.seconds}, c.size.wireSetupBuilds, nil
	case "wire_churn_clos":
		return &wireClos{seed: c.seed, size: c.size, seconds: c.seconds, churn: true}, c.size.wireSetupBuilds, nil
	}
	return nil, 0, fmt.Errorf("unknown workload %q (have %v)", c.name, workloadNames)
}

var workloadNames = []string{"sim_paper", "ingest_metro", "wire_quiet_clos", "wire_churn_clos"}

// runWorkload runs one workload from input generation to output checks and
// returns its report. An untraced run fills the end-to-end metrics; a
// traced run spends half its window untraced and half traced, and fills
// the layer metrics.
func runWorkload(c runConfig) (*report, error) {
	r := newReport(c.name)
	w, builds, err := newWorkload(c)
	if err != nil {
		return nil, err
	}
	progress("%s: generating inputs (seed %d)", c.name, c.seed)
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", c.name, err)
	}
	defer w.close()
	baseline := liveHeap()

	// Set-up time: interference only ever adds time, so the fastest of
	// several builds repeats far better than their median.
	progress("%s: timing %d set-up builds", c.name, builds)
	if _, err := w.build(); err != nil {
		return nil, fmt.Errorf("%s: build: %w", c.name, err)
	}
	var setup time.Duration
	for i := 0; i < builds; i++ {
		runtime.GC()
		d, err := w.build()
		if err != nil {
			return nil, fmt.Errorf("%s: build: %w", c.name, err)
		}
		if i == 0 || d < setup {
			setup = d
		}
	}
	r.set("setup_s", setup.Seconds(), builds)

	if err := w.warm(); err != nil {
		return nil, fmt.Errorf("%s: warm: %w", c.name, err)
	}
	total := time.Duration(c.seconds * float64(time.Second))
	if c.traced {
		return r, tracedRun(c, w, r, total)
	}
	progress("%s: measuring for %v", c.name, total)
	runtime.GC()
	win, err := w.measure(total, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: measure: %w", c.name, err)
	}
	r.attempted, r.failed = win.attempted, win.failed
	s := win.summarize()
	r.set("ops_per_s", s.opsPerS, s.slices)
	r.set("op_p50_us", s.p50ns/1e3, len(win.samples))
	r.set("heap_live_mb", heapDeltaMB(liveHeap(), baseline), 1)
	w.verify(r)
	return r, nil
}

// tracedRun measures half the window untraced and half traced, then probes
// the layers in isolation, and fills r with the layer metrics.
func tracedRun(c runConfig, w workload, r *report, total time.Duration) error {
	progress("%s: measuring for %v untraced, then %v traced", c.name, total/2, total/2)
	// The span buffer exists during both halves: the live heap sets how
	// often the collector runs, and a half with 32 MB more of it would run
	// measurably faster for that reason alone.
	tr := newTracer(1<<20, 0)
	runtime.GC()
	before := readProc()
	plain, err := w.measure(total/2, nil)
	if err != nil {
		return fmt.Errorf("%s: measure: %w", c.name, err)
	}
	spent := readProc().sub(before)
	plainSum := plain.summarize()
	executed := plain.ops * float64(plain.repeats)
	r.set("proc.cpu_us_per_op", float64(spent.cpu.Microseconds())/executed, int(executed))
	r.set("proc.allocs_per_op", float64(spent.mallocs)/executed, int(executed))
	r.set("proc.alloc_bytes_per_op", float64(spent.allocBytes)/executed, int(executed))
	r.set("proc.gc_cpu_share", spent.gcCPU.Seconds()/spent.cpu.Seconds(), 1)
	r.set("proc.gc_cycles", float64(spent.gcCycles), 1)
	r.set("client.sample_count", float64(len(plain.samples)), 1)
	r.set("client.op_p99_us", plainSum.p99ns/1e3, len(plain.samples))

	runtime.GC()
	traced, err := w.measure(total/2, tr)
	if err != nil {
		return fmt.Errorf("%s: traced measure: %w", c.name, err)
	}
	r.attempted, r.failed = plain.attempted+traced.attempted, plain.failed+traced.failed
	r.set("trace.overhead_share", 1-traced.summarize().opsPerS/plainSum.opsPerS, 1)
	r.set("trace.accounted_share", accountedTime(tr.spans).Seconds()/traced.wall.Seconds(), len(tr.spans))
	w.verify(r)

	progress("%s: probing layers in isolation", c.name)
	if err := w.layers(r, plainSum); err != nil {
		return fmt.Errorf("%s: layer probes: %w", c.name, err)
	}
	fixture, err := w.fixture()
	if err != nil {
		return fmt.Errorf("%s: fixture: %w", c.name, err)
	}
	if err := probeLayers(r, fixture); err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	if c.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(c.outDir, "trace-"+c.name+".json")
	if err := writeTrace(path, tr.spans); err != nil {
		return fmt.Errorf("%s: write trace: %w", c.name, err)
	}
	progress("%s: wrote %d spans to %s", c.name, len(tr.spans), path)
	return nil
}

// progress reports to standard error; standard output carries results only.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
