// Livedemo: the real-socket INT pipeline on loopback. Boots two userspace
// soft switches, three probe agents, and the collector/scheduler daemon;
// lets telemetry build the topology; then congests one path with a
// datagram blast and watches the bandwidth ranking steer away from it.
//
// This is the same scheduler logic as the simulator examples, but over
// real UDP packets, real queues, and a real TCP query API.
package main

import (
	"fmt"
	"log"
	"time"

	"intsched/internal/live"
	"intsched/internal/wire"
)

func main() {
	overlay, err := live.StartOverlay(live.OverlaySpec{
		Scheduler: "sched",
		Switches:  []string{"sA", "sB"},
		Links:     [][2]string{{"sA", "sB"}},
		HostAttach: map[string]string{
			"dev":   "sA",
			"e1":    "sA", // near the device
			"e2":    "sB", // remote
			"sched": "sB",
		},
		RateBps:       10_000_000,
		Daemon:        live.DaemonConfig{LinkRateBps: 10_000_000},
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer overlay.Close()

	fmt.Printf("collector daemon: probes udp://%s, queries tcp://%s\n",
		overlay.Daemon.UDPAddr(), overlay.Daemon.QueryAddr())

	// Let probes build the learned topology.
	fmt.Println("waiting for INT probes to map the network...")
	for i := 0; i < 100; i++ {
		if len(overlay.Daemon.Collector().Snapshot().Hosts()) == 4 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	topo := overlay.Daemon.Collector().Snapshot()
	fmt.Printf("learned hosts: %v\n", topo.Hosts())
	if path, err := topo.Path("dev", "sched"); err == nil {
		fmt.Printf("learned path dev->sched: %v\n", path)
	}

	query := func(label string) {
		resp, err := live.Query(overlay.Daemon.QueryAddr(), &wire.QueryRequest{
			From: "dev", Metric: "bandwidth", Sorted: true,
		}, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s — bandwidth ranking for dev:\n", label)
		for i, c := range resp.Candidates {
			fmt.Printf("  %d. %-5s est. %5.1f Mbps (%d hops)\n",
				i+1, c.Node, c.BandwidthBps/1e6, c.Hops)
		}
	}

	query("idle network")

	// Congest sA's port toward e1 and re-query: e1 should sink.
	fmt.Println("\nblasting datagrams at e1 to congest its path...")
	src, err := live.NewTrafficSource("dev", overlay.Switches["sA"].Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer src.Close()
	for i := 0; i < 20; i++ {
		if err := src.Blast("e1", 60, 1200); err != nil {
			log.Fatal(err)
		}
		time.Sleep(25 * time.Millisecond)
	}

	query("congested toward e1")
	fmt.Println("\n(the remote-but-clean e2 should now outrank the congested e1)")
}
