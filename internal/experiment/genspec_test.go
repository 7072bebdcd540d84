package experiment

import (
	"bytes"
	"encoding/json"
	"testing"

	"intsched/internal/simtime"
)

// marshalSpec renders a spec to canonical JSON (encoding/json sorts map
// keys, so equal specs produce byte-identical output).
func marshalSpec(t *testing.T, s *TopoSpec) []byte {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestClosSpecDeterministic: equal seeds must reproduce byte-identical
// topology JSON; different seeds must differ (the jitter is real).
func TestClosSpecDeterministic(t *testing.T) {
	cfg := ClosConfig{Pods: 4, Cores: 4, AggsPerPod: 2, TorsPerPod: 2, HostsPerTor: 2, Seed: 11}
	a, err := ClosSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClosSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSpec(t, a), marshalSpec(t, b)) {
		t.Fatal("same seed produced different Clos specs")
	}
	cfg.Seed = 12
	c, err := ClosSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(marshalSpec(t, a), marshalSpec(t, c)) {
		t.Fatal("different seeds produced identical Clos specs")
	}
}

// TestMetroSpecDeterministic mirrors TestClosSpecDeterministic for the
// metro generator.
func TestMetroSpecDeterministic(t *testing.T) {
	cfg := MetroConfig{Regions: 3, PodsPerRegion: 2, TorsPerPod: 2, ServersPerTor: 2, Seed: 5}
	a, err := MetroSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MetroSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSpec(t, a), marshalSpec(t, b)) {
		t.Fatal("same seed produced different metro specs")
	}
	cfg.Seed = 6
	c, err := MetroSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(marshalSpec(t, a), marshalSpec(t, c)) {
		t.Fatal("different seeds produced identical metro specs")
	}
}

// TestClosSpecDefaultScale: the default Clos config is the fabric the
// benchmark's wire workloads run on (>=200 switches).
func TestClosSpecDefaultScale(t *testing.T) {
	spec, err := ClosSpec(ClosConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Switches) < 200 {
		t.Fatalf("default Clos has %d switches, want >= 200", len(spec.Switches))
	}
	if len(spec.Hosts) < 200 {
		t.Fatalf("default Clos has %d hosts, want >= 200", len(spec.Hosts))
	}
}

// TestMetroSpecDefaultScaleBuilds: the default metro config meets the
// >=1000-edge-node floor and builds end to end (gated reachability check).
func TestMetroSpecDefaultScaleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("metro build is heavyweight")
	}
	spec, err := MetroSpec(MetroConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Hosts) < 1000 {
		t.Fatalf("default metro has %d hosts, want >= 1000", len(spec.Hosts))
	}
	topo, err := spec.Build(simtime.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	if topo.Scheduler != "sched" {
		t.Fatalf("scheduler %q", topo.Scheduler)
	}
	if len(topo.Hosts) != len(spec.Hosts) {
		t.Fatalf("built %d hosts, spec has %d", len(topo.Hosts), len(spec.Hosts))
	}
}

// TestSmallClosBuildsAndRoutes: a small Clos builds with per-link delay
// overrides applied and full pairwise reachability.
func TestSmallClosBuildsAndRoutes(t *testing.T) {
	spec, err := ClosSpec(ClosConfig{Pods: 2, Cores: 2, AggsPerPod: 2, TorsPerPod: 2, HostsPerTor: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.LinkDelayUs) != len(spec.Links) {
		t.Fatalf("%d delays for %d links", len(spec.LinkDelayUs), len(spec.Links))
	}
	if _, err := spec.Build(simtime.NewEngine()); err != nil {
		t.Fatal(err)
	}
}
