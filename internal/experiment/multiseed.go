package experiment

import (
	"math"

	"intsched/internal/core"
)

// GainStats aggregates the overall gain of metric vs. baseline across
// seed-replicated comparisons, returning the mean and population standard
// deviation.
func GainStats(cmps []*Comparison, metric, baseline core.Metric, transfer bool) (mean, std float64) {
	if len(cmps) == 0 {
		return 0, 0
	}
	var sum float64
	gains := make([]float64, 0, len(cmps))
	for _, c := range cmps {
		g := c.OverallGain(metric, baseline, transfer)
		gains = append(gains, g)
		sum += g
	}
	mean = sum / float64(len(gains))
	var ss float64
	for _, g := range gains {
		d := g - mean
		ss += d * d
	}
	std = math.Sqrt(ss / float64(len(gains)))
	return mean, std
}
