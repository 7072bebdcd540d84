package experiment

import (
	"strings"
	"testing"

	"intsched/internal/core"
	"intsched/internal/edge"
	"intsched/internal/workload"
)

// smallComparison runs a tiny two-metric comparison once per test binary.
var cachedCmp *Comparison

func smallComparison(t *testing.T) *Comparison {
	t.Helper()
	if cachedCmp != nil {
		return cachedCmp
	}
	cmp, err := Compare(Scenario{
		Seed:       5,
		Workload:   workload.Serverless,
		TaskCount:  16,
		Background: BackgroundRandom,
	}, []core.Metric{core.MetricDelay, core.MetricNearest})
	if err != nil {
		t.Fatal(err)
	}
	cachedCmp = cmp
	return cmp
}

func TestCompareReplaysIdenticalWorkload(t *testing.T) {
	cmp := smallComparison(t)
	a := cmp.Runs[core.MetricDelay].Results
	b := cmp.Runs[core.MetricNearest].Results
	if len(a) != len(b) {
		t.Fatalf("task counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Same task identity, class, size, device, and submission time —
		// only the chosen server and timings may differ.
		if a[i].TaskID != b[i].TaskID || a[i].Class != b[i].Class ||
			a[i].DataBytes != b[i].DataBytes || a[i].Device != b[i].Device ||
			a[i].SubmitAt != b[i].SubmitAt || a[i].ExecTime != b[i].ExecTime {
			t.Fatalf("workload not replayed identically at %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestSummarizeByClassCountsAllTasks(t *testing.T) {
	cmp := smallComparison(t)
	run := cmp.Runs[core.MetricDelay]
	sum := SummarizeByClass(run)
	total := 0
	for _, c := range workload.Classes() {
		total += sum[c].Count
	}
	if total != len(run.Results) {
		t.Fatalf("summaries cover %d of %d tasks", total, len(run.Results))
	}
}

func TestPerTaskGainsMatchedByID(t *testing.T) {
	cmp := smallComparison(t)
	gains := cmp.PerTaskGains(core.MetricDelay, core.MetricNearest, false)
	if len(gains) != len(cmp.Runs[core.MetricDelay].Results) {
		t.Fatalf("gain samples %d, want %d", len(gains), len(cmp.Runs[core.MetricDelay].Results))
	}
	for _, g := range gains {
		if g > 1 {
			t.Fatalf("gain %v > 1 is impossible (completion times are positive)", g)
		}
	}
}

func TestGainByClassConsistentWithSummaries(t *testing.T) {
	cmp := smallComparison(t)
	gains := cmp.GainByClass(core.MetricDelay, core.MetricNearest, false)
	sums := map[core.Metric]map[workload.Class]ClassStats{
		core.MetricDelay:   SummarizeByClass(cmp.Runs[core.MetricDelay]),
		core.MetricNearest: SummarizeByClass(cmp.Runs[core.MetricNearest]),
	}
	for _, cls := range workload.Classes() {
		b := sums[core.MetricNearest][cls].MeanCompletion
		m := sums[core.MetricDelay][cls].MeanCompletion
		if b == 0 {
			continue
		}
		want := float64(b-m) / float64(b)
		if diff := gains[cls] - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("class %s gain %v, want %v", cls, gains[cls], want)
		}
	}
}

func TestClassTableRenders(t *testing.T) {
	cmp := smallComparison(t)
	out := cmp.ClassTable([]core.Metric{core.MetricDelay, core.MetricNearest}, false)
	for _, want := range []string{"class", "delay", "nearest", "gain(nearest)", "VS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestBuildFig8CurveShape(t *testing.T) {
	cmp := smallComparison(t)
	curve := BuildFig8Curve("test", cmp, core.MetricDelay)
	if len(curve.Gains) == 0 || len(curve.ECDF) == 0 {
		t.Fatal("empty curve")
	}
	if curve.Label != "test" {
		t.Fatal("label lost")
	}
	z := curve.ZeroOrNegativeFraction()
	if z < 0 || z > 1 {
		t.Fatalf("fraction %v", z)
	}
	if curve.AtLeastFraction(-10) != 1 {
		t.Fatal("AtLeastFraction(-10) must be 1")
	}
}

func TestRunResultMeans(t *testing.T) {
	r := &RunResult{Results: []edge.TaskResult{
		{RankedAt: 0, TransferDoneAt: 2e9, SubmitAt: 0, CompletedAt: 4e9},
		{RankedAt: 0, TransferDoneAt: 4e9, SubmitAt: 0, CompletedAt: 8e9},
	}}
	if r.MeanTransfer().Seconds() != 3 {
		t.Fatalf("mean transfer %v", r.MeanTransfer())
	}
	if r.MeanCompletion().Seconds() != 6 {
		t.Fatalf("mean completion %v", r.MeanCompletion())
	}
	empty := &RunResult{}
	if empty.MeanTransfer() != 0 || empty.MeanCompletion() != 0 {
		t.Fatal("empty means not zero")
	}
}
