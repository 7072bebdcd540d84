// Calibration: reproduce the paper's Fig 3 measurement — fixed-rate
// traffic through one P4 switch while INT probes flush the max-queue
// register and ping measures RTT — then auto-fit the two models the
// scheduler needs from it:
//
//  1. the queue→utilization curve used by bandwidth ranking, and
//  2. the queue→latency conversion factor k used by delay ranking
//     (the paper hand-sets k = 20 ms and leaves automation as future work).
package main

import (
	"fmt"
	"log"
	"time"

	"intsched/internal/experiment"
)

func main() {
	fmt.Println("sweeping utilization 0% → 100% on the dumbbell topology (20s per step)...")
	points, err := experiment.Fig3(experiment.Fig3Config{
		Duration: 20 * time.Second,
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-12s %-22s %-10s %s\n", "utilization", "mean max queue (pkts)", "peak", "mean RTT")
	for _, p := range points {
		fmt.Printf("%-12.0f %-22.1f %-10d %v\n",
			p.Utilization*100, p.MeanMaxQueue, p.PeakQueue, p.MeanRTT.Round(100*time.Microsecond))
	}

	cal, err := experiment.CalibrationFromFig3(points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfitted queue→utilization calibration (for bandwidth ranking):")
	for _, pt := range cal.Points() {
		fmt.Printf("  queue ≥ %2d pkts  →  utilization ≈ %.0f%%\n", pt.Queue, pt.Util*100)
	}

	k, err := experiment.KFromFig3(points)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfitted queue→latency factor k = %v per queued packet\n", k)
	fmt.Println("(the paper hand-set k = 20ms; only the induced ordering matters for")
	fmt.Println("ranking, and the fitted-k row of intbench -exp ablation shows 20ms orders better)")
}
