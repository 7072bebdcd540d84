package experiment

import (
	"fmt"

	"intsched/internal/core"
	"intsched/internal/stats"
)

// Every multi-seed number the repository reports is a paired gain: the
// reference and the variant replay the same inputs once per seed of a fixed
// list, the gain is taken per seed, and the row is those gains' mean with its
// 95 % t-interval and the count of seeds won.

// PairedSeeds is the fixed seed list every paired row is computed over.
var PairedSeeds = []int64{101, 102, 103, 104, 105, 106, 107, 108}

// PairedGain is a variant's paired per-seed gain against a reference.
type PairedGain struct {
	// Gains holds (reference − variant) / reference per seed, in seed
	// order; Mean ± Half is their 95 % t-interval and Wins counts the seeds
	// with a positive gain.
	Gains      []float64
	Mean, Half float64
	Wins       int
}

// Paired computes the gain of variant over ref in mean transfer time when
// transfer is set, in mean completion time otherwise; ref[i] and variant[i]
// are one seed's runs.
func Paired(ref, variant []*RunResult, transfer bool) PairedGain {
	mean := (*RunResult).MeanCompletion
	if transfer {
		mean = (*RunResult).MeanTransfer
	}
	var g PairedGain
	for i := range ref {
		gain := stats.GainDuration(mean(ref[i]), mean(variant[i]))
		if gain > 0 {
			g.Wins++
		}
		g.Gains = append(g.Gains, gain)
	}
	g.Mean, g.Half = stats.MeanCI95(g.Gains)
	return g
}

// String renders the gain as "+29.8% ± 5.3% (8/8 won)".
func (g PairedGain) String() string {
	return fmt.Sprintf("%+.1f%% ± %.1f%% (%d/%d won)", g.Mean*100, g.Half*100, g.Wins, len(g.Gains))
}

// AgainstNearest replays base once per seed with its own metric and once
// with Nearest, one cell each through the pool: nearest[i] and ranked[i] are
// seeds[i]'s runs. base.Seed is ignored.
func (p *Pool) AgainstNearest(base Scenario, seeds []int64) (nearest, ranked []*RunResult, err error) {
	runs, err := p.replay(base, 2*len(seeds), func(i int, sc *Scenario) {
		sc.Seed = seeds[i/2]
		if i%2 == 1 {
			sc.Metric = core.MetricNearest
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < len(runs); i += 2 {
		ranked = append(ranked, runs[i])
		nearest = append(nearest, runs[i+1])
	}
	return nearest, ranked, nil
}
