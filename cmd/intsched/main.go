// Command intsched runs the live scheduler: the INT collector daemon that
// ingests probe datagrams over UDP, learns the network topology, and serves
// delay/bandwidth ranking queries over TCP.
//
// Example:
//
//	intsched -id sched -udp 127.0.0.1:7001 -tcp 127.0.0.1:7002
//
// The daemon prints a coverage report (fresh vs stale devices) every
// -report interval so operators can see whether probe routes cover the
// network — the paper's probe-coverage concern made observable.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"intsched/internal/core"
	"intsched/internal/live"
)

func main() {
	var (
		id       = flag.String("id", "sched", "scheduler node name")
		udp      = flag.String("udp", "127.0.0.1:7001", "UDP bind address for probe ingestion")
		tcp      = flag.String("tcp", "127.0.0.1:7002", "TCP bind address for the query API")
		httpAddr = flag.String("http", "", "HTTP bind address for /metrics and /healthz (empty disables)")
		k        = flag.Duration("k", core.DefaultK, "queue occupancy to latency conversion factor")
		rate     = flag.Int64("link-rate", 20_000_000, "assumed link capacity (bps) for bandwidth estimates")
		window   = flag.Duration("queue-window", 0, "queue report freshness window (default: collector default)")
		degraded = flag.Duration("degraded-after", 0, "probe silence per edge before /healthz degrades (default: 3 queue windows)")
		adjTTL   = flag.Duration("adjacency-ttl", 0, "probe silence before a learned link ages out of the topology (default: 5 queue windows; negative disables aging)")
		exclUnre = flag.Bool("exclude-unreachable", false, "recovery policy: drop candidates whose learned path aged out from answers")
		report   = flag.Duration("report", 10*time.Second, "coverage report interval (0 disables)")
		ingestQ  = flag.Int("ingest-queue", 0, "async ingest queue depth (0 keeps ingest synchronous on the UDP receive loop)")
		adaptive = flag.Bool("adaptive", false, "run the adaptive cadence control loop: per-stream probe-interval directives sent back along probe return paths (agents must opt in with intprobe -adaptive)")
		probeBgt = flag.Float64("probe-budget", 0, "adaptive probe budget as a fraction (0,1] of the full static rate (0 disables the cap; requires -adaptive)")
		adaptBas = flag.Duration("adaptive-base", 100*time.Millisecond, "fleet static probe interval anchoring the adaptive cadence clamps")
	)
	flag.Parse()

	daemon, err := live.NewCollectorDaemon(*id, live.DaemonConfig{
		UDPAddr:            *udp,
		TCPAddr:            *tcp,
		HTTPAddr:           *httpAddr,
		K:                  *k,
		LinkRateBps:        *rate,
		QueueWindow:        *window,
		DegradedAfter:      *degraded,
		AdjacencyTTL:       *adjTTL,
		ExcludeUnreachable: *exclUnre,
		IngestQueue:        *ingestQ,
		Adaptive:           *adaptive,
		AdaptiveBase:       *adaptBas,
		ProbeBudget:        *probeBgt,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "intsched: %v\n", err)
		os.Exit(1)
	}
	defer daemon.Close()
	fmt.Printf("intsched: node %s, probes on udp://%s, queries on tcp://%s\n",
		daemon.ID(), daemon.UDPAddr(), daemon.QueryAddr())
	if daemon.HTTPAddr() != "" {
		fmt.Printf("intsched: metrics on http://%s/metrics, health on http://%s/healthz\n",
			daemon.HTTPAddr(), daemon.HTTPAddr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	var ticker *time.Ticker
	var tick <-chan time.Time
	if *report > 0 {
		ticker = time.NewTicker(*report)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-tick:
			st := daemon.Collector().Stats()
			ds := daemon.Stats()
			cov := daemon.Collector().Coverage()
			cs := daemon.CacheStats()
			health := daemon.Health().Evaluate()
			hitRate := 0.0
			if total := cs.Hits + cs.Misses; total > 0 {
				hitRate = float64(cs.Hits) / float64(total)
			}
			fmt.Printf("intsched: health=%s probes=%d drops=%d/%d/%d ingest-drops=%d stale=%d records=%d epoch=%d rank-cache hit=%.0f%% fresh=%v stale-devs=%v\n",
				health.Status, ds.ProbesReceived,
				ds.DatagramErrors, ds.UnexpectedKinds, ds.PayloadErrors,
				st.IngestDrops, st.ProbesOutOfOrder, st.RecordsParsed,
				daemon.Collector().Epoch(), hitRate*100, cov.Fresh, cov.Stale)
			for _, r := range health.Reasons {
				fmt.Printf("intsched:   degraded: %s\n", r)
			}
		case <-stop:
			fmt.Println("\nintsched: shutting down")
			return
		}
	}
}
