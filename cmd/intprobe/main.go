// Command intprobe runs a live probe agent on an edge server: every
// interval it emits one INT probe datagram toward the scheduler through the
// server's attached soft switch.
//
//	intprobe -id n1 -uplink 127.0.0.1:7101 -collector sched -interval 100ms
//
// Note the agent's bound UDP address (printed at startup) is the address
// the attached switch must route this host's traffic to.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"intsched/internal/live"
)

func main() {
	var (
		id        = flag.String("id", "n1", "edge server node name")
		uplink    = flag.String("uplink", "", "UDP address of the attached soft switch (required)")
		collector = flag.String("collector", "sched", "scheduler node name probes are addressed to")
		interval  = flag.Duration("interval", 100*time.Millisecond, "probing interval (paper default 100ms)")
		adaptive  = flag.Bool("adaptive", false, "honor collector cadence directives (default: static interval, directives dropped)")
	)
	flag.Parse()
	if *uplink == "" {
		fmt.Fprintln(os.Stderr, "intprobe: -uplink is required")
		os.Exit(1)
	}
	agent, err := live.NewProbeAgent(*id, *uplink, *collector, *interval)
	if err != nil {
		fmt.Fprintf(os.Stderr, "intprobe: %v\n", err)
		os.Exit(1)
	}
	defer agent.Close()
	if *adaptive {
		agent.EnableAdaptive()
	}
	agent.Start()
	fmt.Printf("intprobe: %s probing %s every %v via %s (host address %s",
		agent.ID(), *collector, *interval, *uplink, agent.Addr())
	if *adaptive {
		fmt.Print(", adaptive cadence")
	}
	fmt.Println(")")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("\nintprobe: shutting down")
}
