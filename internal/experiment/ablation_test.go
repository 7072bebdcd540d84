package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"intsched/internal/stats"
)

// TestAblationRows runs the extension trial at toy size: one row per trial,
// one gain per seed, the interval recomputable from the gains, and the
// collection-mode row carrying what its gain does not show.
func TestAblationRows(t *testing.T) {
	seeds := PairedSeeds[:3]
	res, err := NewPool(2).Ablation(seeds, 3, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.FittedK <= 0 || res.FittedK >= 20*time.Millisecond {
		t.Fatalf("fitted k %v, want a positive drain time well under the paper's 20 ms", res.FittedK)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if len(r.Gains) != len(seeds) {
			t.Fatalf("%s: %d gains for %d seeds", r.Extension, len(r.Gains), len(seeds))
		}
		mean, half := stats.MeanCI95(r.Gains)
		if r.Mean != mean || r.Half != half || math.IsNaN(mean) || math.IsNaN(half) {
			t.Fatalf("%s: %v ± %v, gains give %v ± %v", r.Extension, r.Mean, r.Half, mean, half)
		}
		wins := 0
		for _, g := range r.Gains {
			if g > 0 {
				wins++
			}
		}
		if r.Wins != wins {
			t.Fatalf("%s: %d wins recorded, gains show %d", r.Extension, r.Wins, wins)
		}
	}
	if !res.Rows[0].Transfer || !res.Rows[1].Transfer || res.Rows[2].Transfer {
		t.Fatal("distributed rows compare transfer time, serverless rows completion time")
	}
	if !strings.Contains(res.Rows[2].Note, "MB of telemetry on production packets") {
		t.Fatalf("per-packet INT row note %q", res.Rows[2].Note)
	}
	table := res.Table()
	for _, want := range []string{"on trial", "95% interval", "seeds won", "transfer-time ranking", "coverage-planned probing", "per-packet INT", "CalibrateK", "clock skew"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
