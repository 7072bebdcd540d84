package experiment

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
	"time"

	"intsched/internal/core"
)

// WriteResultsCSV exports a run's per-task results as CSV (one row per
// task), suitable for external plotting of the paper's figures.
func WriteResultsCSV(w io.Writer, r *RunResult) error {
	cw := csv.NewWriter(w)
	header := []string{
		"task_id", "job_id", "class", "kind", "device", "server",
		"data_bytes", "exec_ms", "submit_ms", "ranked_ms",
		"transfer_done_ms", "completed_ms", "transfer_ms", "completion_ms",
		"retransmits",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	ms := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
	}
	for _, res := range r.Results {
		row := []string{
			strconv.FormatUint(res.TaskID, 10),
			strconv.FormatUint(res.JobID, 10),
			res.Class.String(),
			res.Kind.String(),
			string(res.Device),
			string(res.Server),
			strconv.FormatInt(res.DataBytes, 10),
			ms(res.ExecTime),
			ms(res.SubmitAt),
			ms(res.RankedAt),
			ms(res.TransferDoneAt),
			ms(res.CompletedAt),
			ms(res.TransferTime()),
			ms(res.CompletionTime()),
			strconv.Itoa(res.Retransmits),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Summary is the JSON-exportable digest of one run.
type Summary struct {
	Workload       string               `json:"workload"`
	Metric         string               `json:"metric"`
	Seed           int64                `json:"seed"`
	TaskCount      int                  `json:"task_count"`
	Incomplete     int                  `json:"incomplete"`
	ProbeInterval  string               `json:"probe_interval"`
	MeanTransfer   float64              `json:"mean_transfer_ms"`
	MeanCompletion float64              `json:"mean_completion_ms"`
	PacketsDropped uint64               `json:"packets_dropped"`
	ProbesReceived uint64               `json:"probes_received"`
	Classes        map[string]ClassJSON `json:"classes"`
}

// ClassJSON is the per-class digest.
type ClassJSON struct {
	Count          int     `json:"count"`
	MeanTransfer   float64 `json:"mean_transfer_ms"`
	MeanCompletion float64 `json:"mean_completion_ms"`
}

// Summarize builds the JSON digest of a run.
func Summarize(r *RunResult) Summary {
	msf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	s := Summary{
		Workload:       r.Scenario.Workload.String(),
		Metric:         r.Scenario.Metric.String(),
		Seed:           r.Scenario.Seed,
		TaskCount:      r.Scenario.TaskCount,
		Incomplete:     r.Incomplete,
		ProbeInterval:  r.Scenario.ProbeInterval.String(),
		MeanTransfer:   msf(r.MeanTransfer()),
		MeanCompletion: msf(r.MeanCompletion()),
		PacketsDropped: r.PacketsDropped,
		ProbesReceived: r.ProbesReceived,
		Classes:        make(map[string]ClassJSON),
	}
	for cls, cs := range SummarizeByClass(r) {
		s.Classes[cls.String()] = ClassJSON{
			Count:          cs.Count,
			MeanTransfer:   msf(cs.MeanTransfer),
			MeanCompletion: msf(cs.MeanCompletion),
		}
	}
	return s
}

// ComparisonSummary digests a multi-metric comparison, including the
// paper's headline gain numbers.
type ComparisonSummary struct {
	Runs  map[string]Summary            `json:"runs"`
	Gains map[string]map[string]float64 `json:"gains_vs_baseline_pct"`
}

// SummarizeComparison digests a comparison against the given baseline.
func SummarizeComparison(c *Comparison, baseline core.Metric) ComparisonSummary {
	out := ComparisonSummary{
		Runs:  make(map[string]Summary),
		Gains: make(map[string]map[string]float64),
	}
	for m, run := range c.Runs {
		out.Runs[m.String()] = Summarize(run)
		if m == baseline {
			continue
		}
		g := map[string]float64{
			"overall_completion": c.OverallGain(m, baseline, false) * 100,
			"overall_transfer":   c.OverallGain(m, baseline, true) * 100,
		}
		for cls, v := range c.GainByClass(m, baseline, false) {
			g["completion_"+cls.String()] = v * 100
		}
		out.Gains[m.String()] = g
	}
	return out
}

// WriteComparisonJSON exports the comparison digest as indented JSON.
func WriteComparisonJSON(w io.Writer, c *Comparison, baseline core.Metric) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(SummarizeComparison(c, baseline))
}
