package experiment

import (
	"encoding/csv"
	"io"
	"strconv"
	"time"
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
