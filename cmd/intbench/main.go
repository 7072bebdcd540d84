// Command intbench regenerates every table and figure from the paper's
// evaluation section, printing the same rows/series the paper reports.
//
//	intbench                  # everything (full size: 200 tasks, Fig 3 at 300 s)
//	intbench -exp fig5        # one experiment
//	intbench -tasks 60 -fig3dur 30s   # scaled-down quick pass
//	intbench -parallel 1      # force serial execution (output is byte-identical)
//
// Experiments: table1, fig3, fig5, fig6, fig7, fig8, fig9, ablation, faults.
// Every figure runs at -seed; fig5, fig6 and fig7 each add one paired row,
// the gain against Nearest over the fixed seeds 101-108 with its 95 %
// interval and seeds won, as ablation's rows are (both ignore -seed).
// One more runs by name only, because it replays the faults workload many
// times: adaptive compares static vs controller-driven probe cadence at
// several telemetry budgets and writes results/BENCH_adaptive.json. -smoke
// shrinks it to CI size.
// Collector, ranking and daemon cost on generated Clos and metro fabrics is
// measured by the benchmark in bench/ (see BENCHMARK.json), not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"intsched/internal/core"
	"intsched/internal/dataplane"
	"intsched/internal/experiment"
	"intsched/internal/netsim"
	"intsched/internal/simtime"
	"intsched/internal/stats"
	"intsched/internal/workload"
)

var (
	seed     = flag.Int64("seed", 42, "random seed")
	tasks    = flag.Int("tasks", 200, "tasks per experiment run (paper: 200)")
	fig3dur  = flag.Duration("fig3dur", 300*time.Second, "measurement duration per Fig 3 utilization level (paper: 300s)")
	expFlag  = flag.String("exp", "all", "comma-separated experiments: table1,fig3,fig5,fig6,fig7,fig8,fig9,ablation,faults,all (plus adaptive, by name only)")
	parallel = flag.Int("parallel", 0, "worker pool size for independent experiment cells (0 = GOMAXPROCS, 1 = serial); output is byte-identical at any setting")
	smoke    = flag.Bool("smoke", false, "adaptive experiment: shrink to CI size (60 tasks unless -tasks is given, one budget)")
)

// pool runs independent scenario cells; initialized in main from -parallel.
var pool *experiment.Pool

// figKey names one figure's comparison: a workload and the network-aware
// metric ranked on it.
type figKey struct {
	kind   workload.Kind
	metric core.Metric
}

// compared holds the comparison each of fig5-7 ran at -seed, which fig8
// reads instead of simulating the same scenarios again.
var compared = map[figKey]*experiment.Comparison{}

// experiments lists what -exp selects, in run order; inAll marks the ones
// "all" includes.
var experiments = []struct {
	name  string
	fn    func() error
	inAll bool
}{
	{"table1", table1, true},
	{"fig3", fig3, true},
	{"fig5", fig5, true},
	{"fig6", fig6, true},
	{"fig7", fig7, true},
	{"fig8", fig8, true},
	{"fig9", fig9, true},
	{"ablation", ablation, true},
	{"faults", faults, true},
	{"adaptive", adaptiveExp, false},
}

func main() {
	flag.Parse()
	pool = experiment.NewPool(*parallel)
	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	for _, e := range experiments {
		if !want[e.name] && !(e.inAll && want["all"]) {
			continue
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", e.name)
		if err := e.fn(); err != nil {
			fmt.Fprintf(os.Stderr, "intbench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

// sweepTasks is the task count handed to the adaptive sweep: under -smoke it
// sizes itself (0) unless -tasks was given explicitly.
func sweepTasks() int {
	explicit := false
	flag.Visit(func(f *flag.Flag) { explicit = explicit || f.Name == "tasks" })
	if *smoke && !explicit {
		return 0
	}
	return *tasks
}

// writeArtifact records v as indented JSON under results/.
func writeArtifact(name string, v any) error {
	path := "results/" + name
	if err := os.MkdirAll("results", 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// adaptiveExp sweeps static vs controller-driven probe cadence over the
// faults workload at several telemetry budgets. The experiment itself
// enforces the control loop's claims (fewer probe bytes than static-full,
// no worse mis-scheduling or fault detection than the equal-budget static
// cell, back-offs actually engaged); the printed digest lines fold the
// controller's decision counters and are diffed across -parallel widths in
// CI to prove the control loop replays deterministically.
func adaptiveExp() error {
	res, err := pool.Adaptive(experiment.AdaptiveConfig{
		Seed:      *seed,
		TaskCount: sweepTasks(),
		Smoke:     *smoke,
	})
	if err != nil {
		return err
	}
	fmt.Println("static vs adaptive probe cadence under the faults schedule, per telemetry budget:")
	fmt.Println(res.Table())
	for _, c := range res.Cells {
		fmt.Printf("adaptive digest %s %s\n", c.Name, c.Digest)
	}
	fmt.Println("(adaptive cells undercut static-full bytes at equal-or-better mis rate and detection latency)")
	return writeArtifact("BENCH_adaptive.json", res)
}

// faults replays the same workload under a scripted failure schedule (edge
// access link down, edge server crash, probe-loss burst) once per ranking
// metric, classifying every placement against the simulator's ground-truth
// routing state: the network-aware rankers stop mis-scheduling once probe
// silence ages the failed branch out of the learned topology, while the
// static nearest baseline schedules into the failure for the whole window.
func faults() error {
	res, err := pool.Faults(experiment.FaultsConfig{Seed: *seed, TaskCount: *tasks})
	if err != nil {
		return err
	}
	fmt.Printf("failure schedule (offsets from end of warmup, probe interval %v, detection budget %d intervals):\n",
		experiment.FaultProbeInterval, experiment.DetectBudgetIntervals)
	for _, ev := range res.Events {
		fmt.Printf("  %s\n", ev)
	}
	fmt.Println(res.Table())
	fmt.Println("(mis = placements unusable at decision time; detect = within the detection budget of a fault start; steady = later in the fault window — zero means recovered)")
	return nil
}

// table1 prints the workload class definitions plus sampled statistics from
// the generator, validating that generation honors the paper's ranges.
func table1() error {
	tb := stats.NewTable("type", "data size (KB)", "execution time (ms)")
	for _, row := range workload.TableI() {
		tb.AddRow(row.Description,
			fmt.Sprintf("%d - %d", row.MinDataKB, row.MaxDataKB),
			fmt.Sprintf("%d - %d", row.MinExecMs, row.MaxExecMs))
	}
	fmt.Println(tb.String())

	jobs, err := workload.Generate(workload.GenConfig{
		Kind:      workload.Serverless,
		TaskCount: 1000,
		Devices:   []netsim.NodeID{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"},
	}, simtime.NewRand(*seed))
	if err != nil {
		return err
	}
	counts := workload.CountByClass(jobs)
	tb2 := stats.NewTable("class", "sampled tasks (of 1000)")
	for _, c := range workload.Classes() {
		tb2.AddRow(c.String(), counts[c])
	}
	fmt.Println(tb2.String())
	return nil
}

// fig3 reproduces the utilization → (max queue, RTT) calibration sweep.
func fig3() error {
	pts, err := pool.Fig3(experiment.Fig3Config{
		Duration: *fig3dur,
		Seed:     *seed,
	})
	if err != nil {
		return err
	}
	tb := stats.NewTable("utilization", "mean max queue (pkts)", "peak queue", "mean ping RTT", "drops")
	for _, p := range pts {
		tb.AddRow(fmt.Sprintf("%.0f%%", p.Utilization*100),
			fmt.Sprintf("%.1f", p.MeanMaxQueue), p.PeakQueue, p.MeanRTT, p.Drops)
	}
	fmt.Println(tb.String())

	if k, err := experiment.KFromFig3(pts); err == nil {
		fmt.Printf("fitted queue→latency factor k = %v (paper hand-set k = 20ms; "+
			"this substrate drains ~0.6ms/pkt, and ranking only needs the ordering)\n", k)
	}
	if cal, err := experiment.CalibrationFromFig3(pts); err == nil {
		fmt.Printf("fitted queue→utilization calibration: %v\n", cal.Points())
	}
	fmt.Println("\npaper shape: max queue <5 pkts below 50% util, >30 pkts near saturation;")
	fmt.Println("RTT ≈ 40ms baseline, slow growth to 80%, sharp increase at 100%.")
	return nil
}

// compareAndPrint runs the three-way comparison at -seed and prints the
// per-class tables for both completion and transfer times, then the paired
// gain against Nearest over the fixed seed list, which ignores -seed.
func compareAndPrint(kind workload.Kind, nwMetric core.Metric) error {
	metrics := []core.Metric{nwMetric, core.MetricNearest, core.MetricRandom}
	sc := scenario(kind, nwMetric)
	cmp, err := pool.Compare(sc, metrics)
	if err != nil {
		return err
	}
	compared[figKey{kind, nwMetric}] = cmp
	fmt.Println("task completion time (per class):")
	fmt.Println(cmp.ClassTable(metrics, false))
	fmt.Println("data transfer time (per class):")
	fmt.Println(cmp.ClassTable(metrics, true))
	fmt.Printf("overall completion gain vs nearest: %.1f%%, vs random: %.1f%%\n",
		cmp.OverallGain(nwMetric, core.MetricNearest, false)*100,
		cmp.OverallGain(nwMetric, core.MetricRandom, false)*100)
	fmt.Printf("overall transfer gain vs nearest: %.1f%%, vs random: %.1f%%\n",
		cmp.OverallGain(nwMetric, core.MetricNearest, true)*100,
		cmp.OverallGain(nwMetric, core.MetricRandom, true)*100)

	seeds := experiment.PairedSeeds
	nearest, ranked, err := pool.AgainstNearest(sc, seeds)
	if err != nil {
		return err
	}
	fmt.Printf("paired vs nearest over %d seeds (%d-%d): completion %v, transfer %v\n",
		len(seeds), seeds[0], seeds[len(seeds)-1],
		experiment.Paired(nearest, ranked, false), experiment.Paired(nearest, ranked, true))
	return nil
}

// scenario is the figure cell of one workload and metric at -seed and -tasks.
func scenario(kind workload.Kind, metric core.Metric) experiment.Scenario {
	return experiment.Scenario{
		Seed:       *seed,
		Workload:   kind,
		Metric:     metric,
		TaskCount:  *tasks,
		Background: experiment.BackgroundRandom,
	}
}

func fig5() error {
	fmt.Println("serverless workload, delay-based ranking (paper: 17-31% gain vs nearest, max for VS):")
	return compareAndPrint(workload.Serverless, core.MetricDelay)
}

func fig6() error {
	fmt.Println("distributed workload, delay-based ranking (paper: 7-13% gain vs nearest, least for L):")
	return compareAndPrint(workload.Distributed, core.MetricDelay)
}

func fig7() error {
	fmt.Println("distributed workload, bandwidth-based ranking (paper: 28-40% transfer reduction, 22-35% completion):")
	return compareAndPrint(workload.Distributed, core.MetricBandwidth)
}

// fig8 reproduces the per-task gain ECDF from the Fig 5/6/7 runs; a curve
// whose figure did not run in this invocation is simulated here.
func fig8() error {
	curves := []struct {
		label string
		figKey
	}{
		{"serverless-delay", figKey{workload.Serverless, core.MetricDelay}},
		{"distributed-delay", figKey{workload.Distributed, core.MetricDelay}},
		{"distributed-bandwidth", figKey{workload.Distributed, core.MetricBandwidth}},
	}
	tb := stats.NewTable("curve", "≤0 gain", "≥20% gain", "≥60% gain", "median gain")
	for _, c := range curves {
		cmp := compared[c.figKey]
		if cmp == nil {
			var err error
			cmp, err = pool.Compare(scenario(c.kind, c.metric), []core.Metric{c.metric, core.MetricNearest})
			if err != nil {
				return err
			}
		}
		curve := experiment.BuildFig8Curve(c.label, cmp, c.metric)
		tb.AddRow(c.label,
			fmt.Sprintf("%.0f%%", curve.ZeroOrNegativeFraction()*100),
			fmt.Sprintf("%.0f%%", curve.AtLeastFraction(0.20)*100),
			fmt.Sprintf("%.0f%%", curve.AtLeastFraction(0.60)*100),
			fmt.Sprintf("%.0f%%", stats.Median(curve.Gains)*100))
		fmt.Printf("ECDF %s:\n", c.label)
		for _, p := range decimate(curve.ECDF, 12) {
			fmt.Printf("  gain ≤ %6.1f%%  for %5.1f%% of tasks\n", p.Value*100, p.Fraction*100)
		}
	}
	fmt.Println()
	fmt.Println(tb.String())
	fmt.Println("paper: 38% of distributed-delay and 19% of distributed-bandwidth tasks see ≤0 gain;")
	fmt.Println(">60% of distributed-bandwidth tasks see ≥20% gain; 10-20% of tasks see >60% gain.")
	return nil
}

func decimate(pts []stats.ECDFPoint, n int) []stats.ECDFPoint {
	if len(pts) <= n {
		return pts
	}
	out := make([]stats.ECDFPoint, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*len(pts)/n])
	}
	out = append(out, pts[len(pts)-1])
	return out
}

// fig9 sweeps the probing interval under both background patterns.
func fig9() error {
	pts, err := pool.Fig9(experiment.Fig9Config{Seed: *seed, TaskCount: *tasks})
	if err != nil {
		return err
	}
	tb := stats.NewTable("probing interval", "transfer time (Traffic 1)", "transfer time (Traffic 2)")
	for _, p := range pts {
		tb.AddRow(p.Interval, p.Traffic1MeanTransfer, p.Traffic2MeanTransfer)
	}
	fmt.Println(tb.String())
	fmt.Println("paper: transfer time grows >20% from 0.1s to 30s probing interval.")
	return nil
}

// ablation is the trial every extension beyond the paper's evaluated system
// stands: paired per seed over a fixed seed list against what it would
// replace, one row each with its 95 % interval (DESIGN §8), plus the static
// byte cost of the two collection modes.
func ablation() error {
	seeds := experiment.PairedSeeds
	res, err := pool.Ablation(seeds, *tasks, *fig3dur)
	if err != nil {
		return err
	}
	fmt.Printf("extension trial: Fig 4 network, %d tasks, background random, %d seeds (%d-%d), paired per seed;\n",
		*tasks, len(seeds), seeds[0], seeds[len(seeds)-1])
	fmt.Println("gain = (against - on trial) / against, in the metric the paper reports for the workload:")
	fmt.Println(res.Table())

	// Register staging vs per-packet INT: byte overhead comparison.
	fmt.Println("INT overhead: register staging (this paper) vs per-packet embedding:")
	tb := stats.NewTable("hops", "probe bytes (staged)", "per-packet overhead (2 fields)")
	for _, hops := range []int{1, 3, 5, 8} {
		staged, err := experiment.OverheadTelemetryBytes(hops)
		if err != nil {
			return err
		}
		perPkt := dataplane.PerPacketINTOverhead(hops, 2, 4, 1000)
		tb.AddRow(hops, staged, fmt.Sprintf("%.1f%% of every packet", perPkt*100))
	}
	fmt.Println(tb.String())
	return nil
}
