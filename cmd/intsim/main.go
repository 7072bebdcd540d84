// Command intsim runs a single scheduling scenario in the packet-level
// network simulator and prints per-class results. Multi-seed rows come from
// intbench, paired per seed against Nearest.
//
// Example:
//
//	intsim -workload serverless -metric delay -tasks 200 -seed 42
//	intsim -workload distributed -metric bandwidth -background random
//	intsim -faults schedule.json       # scripted failures during the run
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"intsched/internal/core"
	"intsched/internal/experiment"
	"intsched/internal/fault"
	"intsched/internal/stats"
	"intsched/internal/workload"
)

func main() {
	var (
		seed       = flag.Int64("seed", 42, "random seed (drives workload, traffic, random ranking)")
		kind       = flag.String("workload", "serverless", "workload type: serverless | distributed")
		metric     = flag.String("metric", "delay", "ranking metric: delay | bandwidth | nearest | random | transfer-time")
		tasks      = flag.Int("tasks", 200, "number of tasks")
		interval   = flag.Duration("probe-interval", 100*time.Millisecond, "INT probing interval")
		background = flag.String("background", "random", "background traffic: none | random | traffic1 | traffic2")
		k          = flag.Duration("k", core.DefaultK, "queue occupancy to latency conversion factor")
		class      = flag.String("class", "", "restrict to one task class: VS | S | M | L (default: all)")
		slots      = flag.Int("slots", 0, "execution slots per server (0 = unlimited)")
		topoFile   = flag.String("topo", "", "JSON topology spec file (default: the paper's Fig 4)")
		faultsFile = flag.String("faults", "", "JSON fault schedule file: scripted link/node failures injected during the run (event times relative to the end of warmup)")
		exclUnre   = flag.Bool("exclude-unreachable", false, "scheduler recovery policy: drop candidates whose learned path is gone (on automatically with -faults)")
		csvOut     = flag.String("csv", "", "write per-task results as CSV to this file")
		verbose    = flag.Bool("v", false, "print per-task results")
		adaptive   = flag.Bool("adaptive", false, "run the adaptive cadence control loop: the collector retunes per-stream probe intervals from its own telemetry signals")
		probeBgt   = flag.Float64("probe-budget", 0, "adaptive probe budget as a fraction (0,1] of the full static rate (0 disables the cap; requires -adaptive)")
	)
	flag.Parse()

	sc := experiment.Scenario{
		Seed:          *seed,
		TaskCount:     *tasks,
		ProbeInterval: *interval,
		K:             *k,
		Slots:         *slots,
		Adaptive:      *adaptive,
		ProbeBudget:   *probeBgt,
	}
	if *topoFile != "" {
		data, err := os.ReadFile(*topoFile)
		if err != nil {
			fatalf("%v", err)
		}
		spec, err := experiment.ParseTopoSpec(data)
		if err != nil {
			fatalf("%v", err)
		}
		sc.Topo = spec
	}
	sc.ExcludeUnreachable = *exclUnre
	if *faultsFile != "" {
		data, err := os.ReadFile(*faultsFile)
		if err != nil {
			fatalf("%v", err)
		}
		evs, err := fault.ParseSchedule(data)
		if err != nil {
			fatalf("%v", err)
		}
		sc.Faults = evs
		sc.ExcludeUnreachable = true
		sc.RecordDecisions = true
	}
	switch *kind {
	case "serverless":
		sc.Workload = workload.Serverless
	case "distributed":
		sc.Workload = workload.Distributed
	default:
		fatalf("unknown workload %q", *kind)
	}
	m, ok := core.ParseMetric(*metric)
	if !ok {
		fmt.Fprintf(os.Stderr, "intsim: unknown metric %q\n", *metric)
		flag.Usage()
		os.Exit(2)
	}
	sc.Metric = m
	switch *background {
	case "none":
		sc.Background = experiment.BackgroundNone
	case "random":
		sc.Background = experiment.BackgroundRandom
	case "traffic1":
		sc.Background = experiment.BackgroundTraffic1
	case "traffic2":
		sc.Background = experiment.BackgroundTraffic2
	default:
		fatalf("unknown background %q", *background)
	}
	if *class != "" {
		found := false
		for _, c := range workload.Classes() {
			if c.String() == *class {
				sc.Classes = []workload.Class{c}
				found = true
			}
		}
		if !found {
			fatalf("unknown class %q", *class)
		}
	}

	fmt.Printf("running %s workload, %s ranking, %d tasks, seed %d, background %s...\n",
		sc.Workload, sc.Metric, sc.TaskCount, sc.Seed, sc.Background)
	start := time.Now()
	res, err := experiment.Run(sc)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("done in %v wall (%v virtual, %d events, %d probes, %d drops)\n\n",
		time.Since(start).Round(time.Millisecond), res.VirtualDuration.Round(time.Second),
		res.EventsProcessed, res.ProbesReceived, res.PacketsDropped)

	if *verbose {
		tb := stats.NewTable("task", "class", "device", "server", "transfer", "completion")
		for _, r := range res.Results {
			tb.AddRow(r.TaskID, r.Class.String(), string(r.Device), string(r.Server),
				r.TransferTime(), r.CompletionTime())
		}
		fmt.Println(tb.String())
	}

	byClass := experiment.SummarizeByClass(res)
	tb := stats.NewTable("class", "tasks", "mean transfer", "mean completion")
	for _, c := range workload.Classes() {
		s := byClass[c]
		tb.AddRow(c.String(), s.Count, s.MeanTransfer, s.MeanCompletion)
	}
	fmt.Println(tb.String())
	fmt.Printf("overall: mean transfer %v, mean completion %v, incomplete %d\n",
		res.MeanTransfer().Round(time.Millisecond), res.MeanCompletion().Round(time.Millisecond), res.Incomplete)

	if sc.Adaptive {
		fmt.Printf("adaptive: %d directives applied (%d churn tightens, %d silence tightens, %d back-offs, %d budget clamps)\n",
			res.DirectivesApplied, res.CadenceTightens, res.SilenceTightens, res.CadenceBackoffs, res.BudgetClamps)
	}

	if len(sc.Faults) > 0 {
		fmt.Printf("faults: %d events applied, %d reroutes, %d probes dropped; %d adjacency evictions, %d path remaps\n",
			res.FaultStats.EventsApplied, res.FaultStats.Reroutes, res.FaultStats.ProbesDropped,
			res.AdjacencyEvictions, res.PathRemaps)
		fmt.Printf("decisions: %d total, %d mis-scheduled (placement unusable at decision time)\n",
			len(res.Decisions), res.MisScheduled())
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		if err := experiment.WriteResultsCSV(f, res); err != nil {
			fatalf("writing csv: %v", err)
		}
		fmt.Printf("per-task results written to %s\n", *csvOut)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "intsim: "+format+"\n", args...)
	os.Exit(1)
}
