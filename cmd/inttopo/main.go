// Command inttopo emits topology spec files (JSON) consumable by
// cmd/intsim's -topo flag:
//
//	inttopo -kind fig4 > fig4.json
//	inttopo -kind leafspine -spines 2 -leaves 4 -hosts-per-leaf 2 > ls.json
//	inttopo -kind clos -seed 7 > clos.json
//	inttopo -kind metro -regions 4 -servers-per-tor 8 > metro.json
//
// The clos and metro kinds generate the fabrics the repository benchmark
// (bench/) runs on, with seeded per-link delay jitter (same seed, same JSON).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"intsched/internal/experiment"
)

func main() {
	var (
		kind         = flag.String("kind", "fig4", "topology kind: fig4 | leafspine | clos | metro")
		spines       = flag.Int("spines", 2, "leafspine: number of spine switches")
		leaves       = flag.Int("leaves", 4, "leafspine: number of leaf switches")
		hostsPerLeaf = flag.Int("hosts-per-leaf", 2, "leafspine: hosts per leaf")
		seed         = flag.Int64("seed", 1, "clos/metro: link delay jitter seed")
		pods         = flag.Int("pods", 0, "clos: pod count (0 = default 16)")
		cores        = flag.Int("cores", 0, "clos: core switch count (0 = default 16)")
		aggsPerPod   = flag.Int("aggs-per-pod", 0, "clos: aggregation switches per pod (0 = default 4)")
		torsPerPod   = flag.Int("tors-per-pod", 0, "clos/metro: ToR switches per pod (0 = default 8)")
		hostsPerTor  = flag.Int("hosts-per-tor", 0, "clos: edge servers per ToR (0 = default 2)")
		regions      = flag.Int("regions", 0, "metro: region count (0 = default 4)")
		podsPerReg   = flag.Int("pods-per-region", 0, "metro: pod switches per region (0 = default 4)")
		serversPer   = flag.Int("servers-per-tor", 0, "metro: edge servers per ToR (0 = default 8)")
	)
	flag.Parse()

	var spec *experiment.TopoSpec
	var err error
	switch *kind {
	case "fig4":
		spec = experiment.Fig4Spec()
	case "leafspine":
		spec, err = experiment.FatTreeSpec(*spines, *leaves, *hostsPerLeaf)
	case "clos":
		spec, err = experiment.ClosSpec(experiment.ClosConfig{
			Pods: *pods, Cores: *cores, AggsPerPod: *aggsPerPod,
			TorsPerPod: *torsPerPod, HostsPerTor: *hostsPerTor, Seed: *seed,
		})
	case "metro":
		spec, err = experiment.MetroSpec(experiment.MetroConfig{
			Regions: *regions, PodsPerRegion: *podsPerReg,
			TorsPerPod: *torsPerPod, ServersPerTor: *serversPer, Seed: *seed,
		})
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "inttopo: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		fmt.Fprintf(os.Stderr, "inttopo: %v\n", err)
		os.Exit(1)
	}
}
