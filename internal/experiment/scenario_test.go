package experiment

import (
	"testing"
	"time"

	"intsched/internal/core"
	"intsched/internal/workload"
)

func TestRunSmallScenarioCompletes(t *testing.T) {
	res, err := Run(Scenario{
		Seed:      1,
		Workload:  workload.Serverless,
		Metric:    core.MetricDelay,
		TaskCount: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 {
		t.Fatalf("incomplete tasks: %d of 12", res.Incomplete)
	}
	if len(res.Results) != 12 {
		t.Fatalf("got %d results, want 12", len(res.Results))
	}
	for _, r := range res.Results {
		if r.CompletionTime() <= 0 {
			t.Errorf("task %d: non-positive completion time %v", r.TaskID, r.CompletionTime())
		}
		if r.TransferTime() <= 0 {
			t.Errorf("task %d: non-positive transfer time %v", r.TaskID, r.TransferTime())
		}
		if r.CompletionTime() < r.ExecTime {
			t.Errorf("task %d: completion %v < exec %v", r.TaskID, r.CompletionTime(), r.ExecTime)
		}
		if r.Server == "" || r.Server == r.Device {
			t.Errorf("task %d: bad server %q (device %q)", r.TaskID, r.Server, r.Device)
		}
	}
	if res.ProbesReceived == 0 {
		t.Error("no probes reached the collector")
	}
	t.Logf("virtual=%v events=%d probes=%d/%d drops=%d meanCompletion=%v meanTransfer=%v",
		res.VirtualDuration, res.EventsProcessed, res.ProbesReceived, res.ProbesSent,
		res.PacketsDropped, res.MeanCompletion(), res.MeanTransfer())
}

// TestRunRejectsBudgetWithoutController: only the adaptive controller spends
// a probe budget, so a budget without Adaptive, or one outside [0, 1], is an
// error rather than a silently static fleet.
func TestRunRejectsBudgetWithoutController(t *testing.T) {
	for _, sc := range []Scenario{
		{ProbeBudget: 0.5},
		{ProbeBudget: 1.5, Adaptive: true},
		{ProbeBudget: -0.25, Adaptive: true},
	} {
		sc.Seed, sc.Workload, sc.Metric, sc.TaskCount = 1, workload.Serverless, core.MetricDelay, 2
		if _, err := Run(sc); err == nil {
			t.Errorf("budget %v adaptive=%v accepted", sc.ProbeBudget, sc.Adaptive)
		}
	}
}

func TestRunDeterministicAcrossRepeats(t *testing.T) {
	sc := Scenario{Seed: 7, Workload: workload.Distributed, Metric: core.MetricBandwidth, TaskCount: 9}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.TaskID != rb.TaskID || ra.Server != rb.Server || ra.CompletedAt != rb.CompletedAt {
			t.Fatalf("run diverged at %d: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestAllMetricsComplete(t *testing.T) {
	for _, m := range []core.Metric{core.MetricDelay, core.MetricBandwidth, core.MetricNearest, core.MetricRandom} {
		res, err := Run(Scenario{Seed: 3, Workload: workload.Serverless, Metric: m, TaskCount: 6})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Incomplete != 0 {
			t.Errorf("%s: %d incomplete tasks", m, res.Incomplete)
		}
	}
}

func TestScenarioTimelineInvariants(t *testing.T) {
	res, err := Run(Scenario{
		Seed:       13,
		Workload:   workload.Distributed,
		Metric:     core.MetricBandwidth,
		TaskCount:  18,
		Background: BackgroundRandom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 {
		t.Fatalf("%d incomplete", res.Incomplete)
	}
	byJob := map[uint64][]string{}
	for _, r := range res.Results {
		// Timeline strictly ordered: submit ≤ ranked ≤ transfer ≤ done.
		if !(r.SubmitAt <= r.RankedAt && r.RankedAt <= r.TransferDoneAt && r.TransferDoneAt <= r.CompletedAt) {
			t.Fatalf("timeline disordered: %+v", r)
		}
		// Execution time fits inside the completion window.
		if r.CompletedAt-r.TransferDoneAt < r.ExecTime {
			t.Fatalf("exec %v doesn't fit window %v: %+v", r.ExecTime, r.CompletedAt-r.TransferDoneAt, r)
		}
		if r.Server == r.Device {
			t.Fatalf("self-scheduled task: %+v", r)
		}
		byJob[r.JobID] = append(byJob[r.JobID], string(r.Server))
	}
	// Distributed jobs spread over distinct servers (7 candidates exist).
	for job, servers := range byJob {
		if len(servers) != 3 {
			continue // truncated tail job
		}
		seen := map[string]bool{}
		for _, s := range servers {
			if seen[s] {
				t.Fatalf("job %d reused server %s: %v", job, s, servers)
			}
			seen[s] = true
		}
	}
}

func TestSchedulerHostActsAsDeviceAndServer(t *testing.T) {
	// All 8 nodes (scheduler n6 included) submit and execute tasks.
	res, err := Run(Scenario{
		Seed:      21,
		Workload:  workload.Serverless,
		Metric:    core.MetricDelay,
		TaskCount: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitted, served := false, false
	for _, r := range res.Results {
		if r.Device == "n6" {
			submitted = true
		}
		if r.Server == "n6" {
			served = true
		}
	}
	if !submitted {
		t.Error("scheduler host never submitted a task")
	}
	if !served {
		t.Error("scheduler host never executed a task")
	}
}

func TestFig3SweepShapes(t *testing.T) {
	pts, err := Fig3(Fig3Config{
		Utilizations: []float64{0, 0.5, 1.0},
		Duration:     20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("got %d points", len(pts))
	}
	idle, half, full := pts[0], pts[1], pts[2]
	// Paper shape: idle RTT ≈ 4 × link delay (40 ms), queues near zero.
	if idle.MeanRTT < 35*time.Millisecond || idle.MeanRTT > 60*time.Millisecond {
		t.Errorf("idle RTT %v, want ≈40ms", idle.MeanRTT)
	}
	if idle.MeanMaxQueue > 1 {
		t.Errorf("idle queue %v, want ≈0", idle.MeanMaxQueue)
	}
	// Monotone growth with utilization, sharp at saturation.
	if !(half.MeanMaxQueue >= idle.MeanMaxQueue && full.MeanMaxQueue > half.MeanMaxQueue) {
		t.Errorf("queue not monotone: %v / %v / %v", idle.MeanMaxQueue, half.MeanMaxQueue, full.MeanMaxQueue)
	}
	if full.MeanRTT <= half.MeanRTT {
		t.Errorf("RTT not growing at saturation: half=%v full=%v", half.MeanRTT, full.MeanRTT)
	}
	t.Logf("fig3: idle(q=%.1f rtt=%v) half(q=%.1f rtt=%v) full(q=%.1f rtt=%v drops=%d)",
		idle.MeanMaxQueue, idle.MeanRTT, half.MeanMaxQueue, half.MeanRTT,
		full.MeanMaxQueue, full.MeanRTT, full.Drops)
}
