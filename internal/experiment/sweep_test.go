package experiment

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

// serial is the nil pool: every cell runs on the calling goroutine.
var serial *Pool

// TestSweepsParallelMatchSerial: every fault-replay sweep must be
// byte-identical across pool sizes — cells may not depend on -parallel, and
// the CI digest diff at -parallel 1 vs 4 relies on it.
func TestSweepsParallelMatchSerial(t *testing.T) {
	faultsCfg := faultsTestConfig()
	faultsCfg.TaskCount = 40
	sweeps := []struct {
		name string
		run  func(p *Pool) (any, error)
	}{
		{"faults", func(p *Pool) (any, error) {
			res, err := p.Faults(faultsCfg)
			if err != nil {
				return nil, err
			}
			return []any{res.Runs, res.Table()}, nil
		}},
		{"adaptive", func(p *Pool) (any, error) { return p.Adaptive(adaptiveTestConfig()) }},
	}
	for _, sw := range sweeps {
		t.Run(sw.name, func(t *testing.T) {
			want, err := sw.run(serial)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.run(NewPool(4))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("result depends on -parallel:\nserial   %+v\nparallel %+v", want, got)
			}
		})
	}
}

// jsonShape flattens a decoded JSON value into its sorted key paths, arrays
// contributing their first element.
func jsonShape(prefix string, v any, out *[]string) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			jsonShape(prefix+"."+k, e, out)
		}
	case []any:
		if len(v) > 0 {
			jsonShape(prefix+"[]", v[0], out)
		}
	default:
		*out = append(*out, prefix)
	}
}

// TestSweepArtifactKeys: the sweep results marshal directly into the
// recorded artifacts, so their json tags must name exactly the keys of the
// committed files.
func TestSweepArtifactKeys(t *testing.T) {
	for _, tc := range []struct {
		file   string
		result any
	}{
		{"../../results/BENCH_adaptive.json", AdaptiveResult{Cells: []AdaptiveCell{{}}}},
	} {
		shape := func(data []byte) []string {
			var v any
			if err := json.Unmarshal(data, &v); err != nil {
				t.Fatalf("%s: %v", tc.file, err)
			}
			var keys []string
			jsonShape("", v, &keys)
			sort.Strings(keys)
			return keys
		}
		committed, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		marshalled, err := json.Marshal(tc.result)
		if err != nil {
			t.Fatal(err)
		}
		if want, got := shape(committed), shape(marshalled); !reflect.DeepEqual(want, got) {
			t.Errorf("%s keys:\ncommitted  %v\nmarshalled %v", tc.file, want, got)
		}
	}
}

// TestSmokeSizing: smoke shrinks the task count only when the caller did
// not ask for one.
func TestSmokeSizing(t *testing.T) {
	for _, tc := range []struct {
		tasks int
		smoke bool
		want  int
	}{{0, false, 200}, {0, true, 60}, {200, true, 200}, {40, false, 40}} {
		if got := newSweepHeader("x", 1, tc.tasks, tc.smoke).Tasks; got != tc.want {
			t.Errorf("tasks=%d smoke=%v: sized to %d, want %d", tc.tasks, tc.smoke, got, tc.want)
		}
	}
}
