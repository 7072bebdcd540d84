package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestEveryWorkloadAtToySize runs each workload end to end, untraced and
// traced, on fabrics small enough for the test suite, and checks that every
// metric of the catalogue comes out once, finite, and that the output
// checks ran and passed.
func TestEveryWorkloadAtToySize(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			c := runConfig{name: name, seed: 3, seconds: 0.6, traced: traced, size: toySize}
			r, err := runWorkload(c)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !r.correct() || r.failed != 0 || r.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, problems %v", name, traced, r.attempted, r.failed, r.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := r.values[d.name]
				if !ok && !traced {
					t.Errorf("%s: end-to-end metric %s not reported", name, d.name)
				}
				if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
					t.Errorf("%s: %s = %v", name, d.name, v.value)
				}
				if !traced && v.value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v.value)
				}
			}
			for got := range r.values {
				if !inCatalogue(got) {
					t.Errorf("%s: reported %s, which the catalogue does not list", name, got)
				}
			}
			var out bytes.Buffer
			r.print(&out, defs)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if len(lines) != len(defs)+1 {
				t.Fatalf("%s: printed %d lines for %d metrics", name, len(lines), len(defs))
			}
			var result struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", name, err)
			}
			if !result.Correct || len(result.Metrics) != len(defs) {
				t.Errorf("%s: result object correct=%v with %d metrics, want %d", name, result.Correct, len(result.Metrics), len(defs))
			}
		}
	}
}

func inCatalogue(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return true
			}
		}
	}
	return false
}

// TestOutputChecksAreLive asks for more candidates than the toy fabric has
// hosts: the answer check must fail and name what it wanted.
func TestOutputChecksAreLive(t *testing.T) {
	size := toySize
	size.candidates = 40
	r, err := runWorkload(runConfig{name: "wire_churn_clos", seed: 1, seconds: 0.3, size: size})
	if err != nil {
		t.Fatal(err)
	}
	if r.correct() || r.failed == 0 {
		t.Fatalf("asking for 40 candidates of 31 passed: failed=%d problems=%v", r.failed, r.problems)
	}
	if !strings.Contains(strings.Join(r.problems, "\n"), "want 40 candidates, got 31") {
		t.Errorf("failure does not name expected and got: %v", r.problems)
	}
}

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json and the metrics
// the program emits in step.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		kind string
		file []entry
		defs []metricDef
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if len(c.file) != len(c.defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", c.kind, len(c.file), len(c.defs))
		}
		for i, d := range c.defs {
			if got := c.file[i]; got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", c.kind, i, got, d)
			}
		}
	}
}
