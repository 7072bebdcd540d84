package experiment

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"intsched/internal/core"
	"intsched/internal/workload"
)

// poolTestScenario is small enough for the -race CI job yet exercises the
// full pipeline (probing, background traffic, scheduling, transport).
var poolTestScenario = Scenario{
	Workload:         workload.Serverless,
	TaskCount:        10,
	MeanInterarrival: time.Second, // keep virtual time short for -race CI
	Background:       BackgroundRandom,
}

var poolTestMetrics = []core.Metric{core.MetricDelay, core.MetricNearest, core.MetricRandom}

// TestPoolCompareSeedsDeterminism is the tentpole guarantee: the parallel
// pool must return results deep-equal — and exports byte-equal — to the
// serial path, across every (seed, metric) cell.
func TestPoolCompareSeedsDeterminism(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	serial, err := (*Pool)(nil).CompareSeeds(poolTestScenario, poolTestMetrics, seeds)
	if err != nil {
		t.Fatalf("serial CompareSeeds: %v", err)
	}
	parallel, err := NewPool(8).CompareSeeds(poolTestScenario, poolTestMetrics, seeds)
	if err != nil {
		t.Fatalf("parallel CompareSeeds: %v", err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("comparison count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Scenario, parallel[i].Scenario) {
			t.Errorf("seed %d: scenario differs", seeds[i])
		}
		for _, m := range poolTestMetrics {
			s, p := serial[i].Runs[m], parallel[i].Runs[m]
			if !reflect.DeepEqual(s, p) {
				t.Errorf("seed %d metric %s: run results differ", seeds[i], m)
			}
			var sb, pb bytes.Buffer
			if err := WriteResultsCSV(&sb, s); err != nil {
				t.Fatalf("serial CSV: %v", err)
			}
			if err := WriteResultsCSV(&pb, p); err != nil {
				t.Fatalf("parallel CSV: %v", err)
			}
			if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
				t.Errorf("seed %d metric %s: CSV export not byte-identical", seeds[i], m)
			}
		}
	}
}

// TestPoolCompareMatchesSerial covers the single-seed Compare entry point
// with more workers than cells.
func TestPoolCompareMatchesSerial(t *testing.T) {
	sc := poolTestScenario
	sc.Seed = 7
	serial, err := Compare(sc, poolTestMetrics)
	if err != nil {
		t.Fatalf("serial Compare: %v", err)
	}
	parallel, err := NewPool(8).Compare(sc, poolTestMetrics)
	if err != nil {
		t.Fatalf("parallel Compare: %v", err)
	}
	if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
		t.Fatalf("parallel Compare results differ from serial")
	}
}

// TestPoolErrorLowestIndexWins pins the error contract: with several
// failing cells, the pool reports the one a serial pass would have hit
// first.
func TestPoolErrorLowestIndexWins(t *testing.T) {
	p := NewPool(4)
	err := p.run(8, func(i int) error {
		if i >= 2 {
			return errIndexed(i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if err != errIndexed(2) {
		t.Fatalf("got %v, want %v", err, errIndexed(2))
	}
}

type errIndexed int

func (e errIndexed) Error() string { return "cell failed" }

func TestPoolWorkers(t *testing.T) {
	if w := (*Pool)(nil).Workers(); w != 1 {
		t.Fatalf("nil pool workers = %d, want 1", w)
	}
	if w := NewPool(3).Workers(); w != 3 {
		t.Fatalf("NewPool(3).Workers() = %d", w)
	}
	if w := NewPool(0).Workers(); w < 1 {
		t.Fatalf("NewPool(0).Workers() = %d, want >= 1", w)
	}
}
