package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMeanAndStdDev(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty not 0")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("mean %v", got)
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("stddev of single not 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.0) > 1e-9 {
		t.Errorf("stddev %v, want 2", got)
	}
}

func TestMeanDuration(t *testing.T) {
	if MeanDuration(nil) != 0 {
		t.Error("empty not 0")
	}
	got := MeanDuration([]time.Duration{time.Second, 3 * time.Second})
	if got != 2*time.Second {
		t.Errorf("mean %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {12.5, 1.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
	if Percentile([]float64{7}, 99) != 7 {
		t.Error("singleton percentile")
	}
	if Median(xs) != 3 {
		t.Error("median")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestGain(t *testing.T) {
	if Gain(10, 7) != 0.3 {
		t.Errorf("gain %v", Gain(10, 7))
	}
	if Gain(10, 13) != -0.3 {
		t.Errorf("negative gain %v", Gain(10, 13))
	}
	if Gain(0, 5) != 0 {
		t.Error("zero baseline")
	}
	if GainDuration(10*time.Second, 5*time.Second) != 0.5 {
		t.Error("duration gain")
	}
}

func TestECDF(t *testing.T) {
	pts := ECDF([]float64{3, 1, 2, 2})
	if len(pts) != 3 {
		t.Fatalf("points %v", pts)
	}
	want := []ECDFPoint{{1, 0.25}, {2, 0.75}, {3, 1.0}}
	for i, w := range want {
		if pts[i] != w {
			t.Fatalf("pts[%d]=%v, want %v", i, pts[i], w)
		}
	}
	if ECDF(nil) != nil {
		t.Error("empty ECDF not nil")
	}
}

func TestECDFProperties(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		pts := ECDF(xs)
		if len(xs) == 0 {
			return pts == nil
		}
		// Fractions strictly increasing, ending at 1; values sorted.
		prev := 0.0
		for i, p := range pts {
			if p.Fraction <= prev {
				return false
			}
			if i > 0 && pts[i-1].Value >= p.Value {
				return false
			}
			prev = p.Fraction
		}
		if math.Abs(pts[len(pts)-1].Fraction-1) > 1e-12 {
			return false
		}
		// Fraction at each point equals the true CDF.
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for _, p := range pts {
			if FractionAtMost(xs, p.Value) != p.Fraction {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFractions(t *testing.T) {
	xs := []float64{-0.1, 0, 0.2, 0.5, 0.9}
	if FractionAtMost(xs, 0) != 0.4 {
		t.Errorf("atMost %v", FractionAtMost(xs, 0))
	}
	if FractionAtLeast(xs, 0.2) != 0.6 {
		t.Errorf("atLeast %v", FractionAtLeast(xs, 0.2))
	}
	if FractionAtMost(nil, 1) != 0 || FractionAtLeast(nil, 1) != 0 {
		t.Error("empty fractions")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value", "time")
	tb.AddRow("alpha", 3.14159, 1500*time.Millisecond)
	tb.AddRow("b", 2, time.Second)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "3.14") {
		t.Fatalf("table output:\n%s", out)
	}
	if !strings.Contains(out, "1.500s") {
		t.Fatalf("duration formatting:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and separator equal width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("misaligned header/separator:\n%s", out)
	}
}

func TestMeanCI95(t *testing.T) {
	// Eight paired gains: mean 0.05, sample deviation 0.02 → half-width
	// t(7) · s / √8 = 2.365 · 0.02 / 2.828.
	xs := []float64{0.03, 0.07, 0.03, 0.07, 0.03, 0.07, 0.05, 0.05}
	mean, half := MeanCI95(xs)
	if math.Abs(mean-0.05) > 1e-12 {
		t.Fatalf("mean %v", mean)
	}
	s := math.Sqrt(6 * 0.0004 / 7)
	if want := 2.365 * s / math.Sqrt(8); math.Abs(half-want) > 1e-12 {
		t.Fatalf("half-width %v, want %v", half, want)
	}
	// Two samples use t(1); beyond the table the normal quantile takes over.
	if _, half := MeanCI95([]float64{1, 3}); math.Abs(half-12.706) > 1e-9 {
		t.Fatalf("n=2 half-width %v, want 12.706", half)
	}
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 2)
	}
	if _, half := MeanCI95(big); math.Abs(half-1.960*0.5/math.Sqrt(99)) > 1e-12 {
		t.Fatalf("n=100 half-width %v", half)
	}
	if mean, half := MeanCI95([]float64{4}); mean != 4 || half != 0 {
		t.Fatalf("single sample: %v ± %v", mean, half)
	}
	if mean, half := MeanCI95(nil); mean != 0 || half != 0 {
		t.Fatalf("empty: %v ± %v", mean, half)
	}
}
