package experiment

import (
	"encoding/json"
	"testing"
	"time"

	"intsched/internal/core"
	"intsched/internal/simtime"
	"intsched/internal/workload"
)

func TestFig4SpecEquivalentToBuilder(t *testing.T) {
	spec := Fig4Spec()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	fromSpec, err := spec.Build(simtime.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := BuildFig4(simtime.NewEngine(), LinkParams{})
	if err != nil {
		t.Fatal(err)
	}
	if fromSpec.Scheduler != direct.Scheduler {
		t.Fatalf("scheduler %s vs %s", fromSpec.Scheduler, direct.Scheduler)
	}
	if len(fromSpec.Hosts) != len(direct.Hosts) {
		t.Fatalf("hosts %d vs %d", len(fromSpec.Hosts), len(direct.Hosts))
	}
	// Same routed paths between every pair.
	for _, a := range direct.Hosts {
		for _, b := range direct.Hosts {
			if a == b {
				continue
			}
			p1, err1 := fromSpec.Net.PathBetween(a, b)
			p2, err2 := direct.Net.PathBetween(a, b)
			if err1 != nil || err2 != nil {
				t.Fatalf("path errors: %v %v", err1, err2)
			}
			if len(p1) != len(p2) {
				t.Fatalf("path %s->%s differs: %v vs %v", a, b, p1, p2)
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("path %s->%s differs: %v vs %v", a, b, p1, p2)
				}
			}
		}
	}
}

func TestParseTopoSpecJSONRoundTrip(t *testing.T) {
	spec := Fig4Spec()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTopoSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Scheduler != spec.Scheduler || len(parsed.Switches) != len(spec.Switches) {
		t.Fatalf("parsed %+v", parsed)
	}
}

func TestTopoSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*TopoSpec)
	}{
		{"no switches", func(s *TopoSpec) { s.Switches = nil }},
		{"one host", func(s *TopoSpec) { s.Hosts = map[string]string{"n1": "s01"} }},
		{"unknown attach", func(s *TopoSpec) { s.Hosts["nX"] = "sZZ" }},
		{"host is switch", func(s *TopoSpec) { s.Hosts["s01"] = "s02" }},
		{"no scheduler", func(s *TopoSpec) { s.Scheduler = "" }},
		{"scheduler not host", func(s *TopoSpec) { s.Scheduler = "s01" }},
		{"bad link", func(s *TopoSpec) { s.Links = append(s.Links, [2]string{"s01", "sZZ"}) }},
		{"self link", func(s *TopoSpec) { s.Links = append(s.Links, [2]string{"s01", "s01"}) }},
		{"dup switch", func(s *TopoSpec) { s.Switches = append(s.Switches, "s01") }},
	}
	for _, tc := range cases {
		spec := Fig4Spec()
		tc.mut(spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}

func TestTopoSpecBuildRejectsPartitioned(t *testing.T) {
	spec := &TopoSpec{
		Name:      "split",
		Scheduler: "a",
		Switches:  []string{"s1", "s2"},
		Hosts:     map[string]string{"a": "s1", "b": "s2"},
		// no links between s1 and s2
	}
	if _, err := spec.Build(simtime.NewEngine()); err == nil {
		t.Fatal("partitioned topology accepted")
	}
}

func TestFatTreeSpec(t *testing.T) {
	spec, err := FatTreeSpec(2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := spec.Build(simtime.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Hosts) != 6 {
		t.Fatalf("hosts %d", len(topo.Hosts))
	}
	if len(topo.Net.Switches()) != 5 {
		t.Fatalf("switches %d", len(topo.Net.Switches()))
	}
	// Same-leaf hosts: 2 hops; cross-leaf: 4 hops (host-leaf-spine-leaf-host).
	if h, _ := topo.Net.HopCount("h0000", "h0001"); h != 2 {
		t.Fatalf("same-leaf hops %d", h)
	}
	if h, _ := topo.Net.HopCount("h0000", "h0100"); h != 4 {
		t.Fatalf("cross-leaf hops %d", h)
	}
	if _, err := FatTreeSpec(0, 1, 0); err == nil {
		t.Fatal("degenerate fat tree accepted")
	}
}

func TestScenarioOnCustomTopology(t *testing.T) {
	spec, err := FatTreeSpec(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Scenario{
		Seed:      3,
		Workload:  workload.Serverless,
		Metric:    core.MetricDelay,
		TaskCount: 6,
		Topo:      spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete != 0 || len(res.Results) != 6 {
		t.Fatalf("incomplete=%d results=%d", res.Incomplete, len(res.Results))
	}
}

func TestScenarioTransferTimeAndProbeVariants(t *testing.T) {
	for _, sc := range []Scenario{
		{Seed: 2, Workload: workload.Serverless, Metric: core.MetricTransferTime, TaskCount: 5},
		{Seed: 2, Workload: workload.Serverless, Metric: core.MetricDelay, TaskCount: 5, SchedulerOnlyProbes: true},
		{Seed: 2, Workload: workload.Serverless, Metric: core.MetricDelay, TaskCount: 5, ClockSkew: 2 * time.Millisecond},
	} {
		res, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incomplete != 0 {
			t.Fatalf("%+v: %d incomplete", sc, res.Incomplete)
		}
	}
}
