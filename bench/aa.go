package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the A/A comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs 2n untraced passes of each named workload as fresh processes,
// alternating between set A and set B, pass i of both sets on seed+i. It
// prints each set's median, range and quartile spread per metric and
// workload, and fails when set B's median is worse than set A's by more
// than the metric's bound, or a spread exceeds it: the same two tests the
// benchmark's bounds have to survive on identical code.
func runAA(names []string, n int, seed int64, seconds float64) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-aa reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failures := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := range sets {
				progress("aa: %s pass %d set %c", name, i+1, 'A'+set)
				metrics, err := childRun(self, name, seed+int64(i), seconds)
				if err != nil {
					return err
				}
				for _, m := range file.EndToEnd {
					progress("aa:   %s = %.6g", m.Name, metrics[m.Name])
					sets[set][m.Name] = append(sets[set][m.Name], metrics[m.Name])
				}
			}
		}
		for _, m := range file.EndToEnd {
			a, b := summarizeSet(sets[0][m.Name]), summarizeSet(sets[1][m.Name])
			worse := (b.median - a.median) / a.median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && (a.spread > m.Bound || b.spread > m.Bound)) {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%s\t%s\tA median %.6g [%.6g, %.6g] spread %.2f%%\tB median %.6g [%.6g, %.6g] spread %.2f%%\tB worse by %.2f%%\tbound %.0f%%\t%s\n",
				name, m.Name, a.median, a.min, a.max, 100*a.spread, b.median, b.min, b.max, 100*b.spread, 100*worse, 100*m.Bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("aa: %d metric x workload pairs outside their bound", failures)
	}
	return nil
}

// childRun runs one workload in a fresh process, as the driver does, and
// returns the metrics of the result object on its last output line.
func childRun(self, name string, seed int64, seconds float64) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w\n%s", name, seed, err, stderr.Bytes())
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	var result struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(last, &result); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	if !result.Correct || result.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: run incorrect (%d failed operations)", name, seed, result.Failed)
	}
	metrics := make(map[string]float64, len(result.Metrics))
	for k, v := range result.Metrics {
		metrics[k] = v.Value
	}
	return metrics, nil
}

// setSummary describes one set's values of one metric.
type setSummary struct {
	median, min, max float64
	// spread is the distance between the first and third quartile as a
	// share of the median (0 for fewer than two values).
	spread float64
}

func summarizeSet(values []float64) setSummary {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	if len(xs) == 0 {
		return setSummary{}
	}
	s := setSummary{median: median(xs), min: xs[0], max: xs[len(xs)-1]}
	if len(xs) >= 2 && s.median != 0 {
		s.spread = (quantile(xs, 0.75) - quantile(xs, 0.25)) / s.median
		if s.spread < 0 {
			s.spread = -s.spread
		}
	}
	return s
}

// quantile is the exclusive-method quantile of sorted xs that Python's
// statistics.quantiles uses, so that spreads read the same as the driver's.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	pos := p * float64(n+1)
	j := int(pos)
	if j < 1 {
		return xs[0]
	}
	if j >= n {
		return xs[n-1]
	}
	frac := pos - float64(j)
	return xs[j-1] + frac*(xs[j]-xs[j-1])
}
