package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := make([]uint32, 200)
	for i := range s {
		s[i] = uint32(200 - i) // 200..1, unsorted
	}
	sortSamples(s)
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Fewer than a hundred samples: p99 is the largest.
	if got := percentile([]uint32{3, 5, 9}, 99); got != 9 {
		t.Errorf("p99 of three samples = %v, want 9", got)
	}
}

func TestMedianAndHeapDelta(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := heapDeltaMB(7_500_000, 5_000_000); got != 2.5 {
		t.Errorf("heap delta = %v MB, want 2.5", got)
	}
	if got := heapDeltaMB(1_000_000, 3_000_000); got != -2 {
		t.Errorf("heap below baseline = %v MB, want -2", got)
	}
}

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// gives [3.5, 13.5, 31.0].
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	s := summarizeSet(xs)
	if s.median != 13.5 || s.min != 1 || s.max != 46 {
		t.Errorf("summary = %+v", s)
	}
	if want := (31.0 - 3.5) / 13.5; math.Abs(s.spread-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", s.spread, want)
	}
	if got := summarizeSet([]float64{5}).spread; got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}
