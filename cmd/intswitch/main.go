// Command intswitch runs one live soft switch: a userspace P4-style
// forwarder that moves overlay datagrams between rate-limited egress queues
// and stamps INT telemetry into probe packets.
//
// Ports and routes are given as repeatable flags:
//
//	intswitch -id s1 -listen 127.0.0.1:7101 -rate 20000000 \
//	    -port n1=127.0.0.1:7201 -port s2=127.0.0.1:7102 \
//	    -route n1=0 -route sched=1 -route e1=1
//
// Port indices in -route refer to the order of -port flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"intsched/internal/live"
)

// kvList collects repeatable key=value flags.
type kvList []string

func (l *kvList) String() string { return strings.Join(*l, ",") }

func (l *kvList) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("expected key=value, got %q", v)
	}
	*l = append(*l, v)
	return nil
}

func main() {
	var (
		id       = flag.String("id", "s1", "switch node name")
		listen   = flag.String("listen", "127.0.0.1:0", "UDP bind address")
		rate     = flag.Int64("rate", live.DefaultRateBps, "egress rate per port (bps)")
		queueCap = flag.Int("queue", live.DefaultQueueCap, "egress queue capacity (packets)")
		stats    = flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
		ports    kvList
		routes   kvList
	)
	flag.Var(&ports, "port", "neighbor=udpaddr (repeatable; index = declaration order)")
	flag.Var(&routes, "route", "dstnode=portindex (repeatable)")
	flag.Parse()

	sw, err := live.NewSoftSwitch(*id, *listen, *rate, *queueCap)
	if err != nil {
		fatal(err)
	}
	defer sw.Close()
	for _, p := range ports {
		k, v, _ := strings.Cut(p, "=")
		if _, err := sw.AddPort(k, v); err != nil {
			fatal(err)
		}
	}
	for _, r := range routes {
		k, v, _ := strings.Cut(r, "=")
		idx, err := strconv.Atoi(v)
		if err != nil {
			fatal(fmt.Errorf("route %q: %w", r, err))
		}
		if err := sw.SetRoute(k, idx); err != nil {
			fatal(err)
		}
	}
	sw.Start()
	fmt.Printf("intswitch: %s forwarding on udp://%s (%d ports, %.0f Mbps/port)\n",
		sw.ID(), sw.Addr(), len(ports), float64(*rate)/1e6)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *stats > 0 {
		t := time.NewTicker(*stats)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			forwarded, drops := sw.Counters()
			fmt.Printf("intswitch: %s forwarded=%d dropped=%d\n", sw.ID(), forwarded, drops)
		case <-stop:
			fmt.Println("\nintswitch: shutting down")
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "intswitch: %v\n", err)
	os.Exit(1)
}
