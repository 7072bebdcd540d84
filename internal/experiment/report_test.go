package experiment

import (
	"bytes"
	"encoding/csv"
	"testing"

	"intsched/internal/core"
)

func TestWriteResultsCSV(t *testing.T) {
	cmp := smallComparison(t)
	run := cmp.Runs[core.MetricDelay]
	var buf bytes.Buffer
	if err := WriteResultsCSV(&buf, run); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(run.Results)+1 {
		t.Fatalf("rows %d, want %d", len(records), len(run.Results)+1)
	}
	if records[0][0] != "task_id" {
		t.Fatalf("header %v", records[0])
	}
	for _, row := range records[1:] {
		if len(row) != len(records[0]) {
			t.Fatalf("ragged row %v", row)
		}
	}
}
