// Package stats provides the summary statistics used by the experiment
// harness: means, percentiles, empirical CDFs, and the per-task performance
// gain computation behind the paper's figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanDuration returns the mean of durations (0 for empty input).
func MeanDuration(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum / time.Duration(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// t975 is the 0.975 quantile of Student's t for 1–30 degrees of freedom;
// beyond that the normal quantile is within 2 %.
var t975 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the mean of xs and the half-width of its two-sided 95 %
// t-interval (0 with fewer than two samples).
func MeanCI95(xs []float64) (mean, half float64) {
	n := len(xs)
	if n < 2 {
		return Mean(xs), 0
	}
	t := 1.960
	if n-1 <= len(t975) {
		t = t975[n-2]
	}
	// StdDev is the population deviation: s/√n = StdDev/√(n−1).
	return Mean(xs), t * StdDev(xs) / math.Sqrt(float64(n-1))
}

// Percentile returns the p-th percentile (0–100) using linear interpolation
// between closest ranks. It panics for p outside [0, 100].
func Percentile(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range", p))
	}
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Gain returns the relative improvement of measured over baseline:
// (baseline − measured) / baseline. Positive means measured is better
// (smaller). Zero baseline yields zero.
func Gain(baseline, measured float64) float64 {
	if baseline == 0 {
		return 0
	}
	return (baseline - measured) / baseline
}

// GainDuration is Gain over durations.
func GainDuration(baseline, measured time.Duration) float64 {
	return Gain(float64(baseline), float64(measured))
}

// ECDFPoint is one point of an empirical CDF: fraction of samples ≤ Value.
type ECDFPoint struct {
	Value    float64
	Fraction float64
}

// ECDF computes the empirical cumulative distribution function of xs,
// returning one point per distinct value.
func ECDF(xs []float64) []ECDFPoint {
	if len(xs) == 0 {
		return nil
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var out []ECDFPoint
	n := float64(len(s))
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] {
			j++
		}
		out = append(out, ECDFPoint{Value: s[i], Fraction: float64(j) / n})
		i = j
	}
	return out
}

// FractionAtMost returns the fraction of samples ≤ v.
func FractionAtMost(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// FractionAtLeast returns the fraction of samples ≥ v.
func FractionAtLeast(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= v {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// Table renders a simple aligned text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.3fs", v.Seconds())
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
