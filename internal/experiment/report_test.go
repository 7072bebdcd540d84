package experiment

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
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

func TestWriteComparisonJSON(t *testing.T) {
	cmp := smallComparison(t)
	var buf bytes.Buffer
	if err := WriteComparisonJSON(&buf, cmp, core.MetricNearest); err != nil {
		t.Fatal(err)
	}
	var out ComparisonSummary
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Runs) != 2 {
		t.Fatalf("runs %v", out.Runs)
	}
	g, ok := out.Gains["delay"]
	if !ok {
		t.Fatalf("gains %v", out.Gains)
	}
	if _, ok := g["overall_completion"]; !ok {
		t.Fatal("missing overall gain")
	}
	if _, ok := out.Gains["nearest"]; ok {
		t.Fatal("baseline has gains vs itself")
	}
}
