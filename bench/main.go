// Command bench is the repository's benchmark: four workloads on the
// generators' real fabric sizes, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	// One P: on a small shared host concurrency scaling is not measurable,
	// and with one P goroutine interleaving repeats from run to run.
	runtime.GOMAXPROCS(1)

	name := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames)+" (all when empty)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	traced := flag.Int("trace", 0, "1 for a traced run reporting the per-layer metrics, 0 for the end-to-end metrics")
	aa := flag.Int("aa", 0, "run 2N passes of the suite as two interleaved sets and compare their medians against BENCHMARK.json's bounds")
	flag.Parse()
	if flag.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames
	if *name != "" {
		names = []string{*name}
	}
	if *aa > 0 {
		if err := runAA(names, *aa, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	ok := true
	for _, n := range names {
		r, err := runWorkload(runConfig{
			name: n, seed: *seed, seconds: *seconds, traced: *traced == 1,
			size: fullSize, outDir: "bench/out",
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		r.print(os.Stdout, defs)
		for _, p := range r.problems {
			fmt.Fprintln(os.Stderr, "bench:", p)
		}
		if r.failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed\n", n, r.failed, r.attempted)
		}
		ok = ok && r.correct() && r.failed == 0
	}
	if !ok {
		os.Exit(1)
	}
}
