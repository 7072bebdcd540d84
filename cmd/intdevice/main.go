// Command intdevice is the live edge-device client: it queries the
// scheduler's TCP API for ranked candidate edge servers.
//
//	intdevice -scheduler 127.0.0.1:7002 -from dev -metric delay
//	intdevice -scheduler 127.0.0.1:7002 -from dev -metric bandwidth -watch 1s
//
// Queries go through live.Query, which keeps its connection to the scheduler
// between calls: with -watch below 4 s every query after the first reuses
// it, and a connection the scheduler closed meanwhile (restart, 5 s idle
// deadline) is replaced by one fresh dial without the query failing.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"intsched/internal/live"
	"intsched/internal/stats"
	"intsched/internal/wire"
)

func main() {
	var (
		scheduler = flag.String("scheduler", "127.0.0.1:7002", "scheduler query API address")
		from      = flag.String("from", "dev", "querying device's node name")
		metric    = flag.String("metric", "delay", "ranking metric: delay | bandwidth | transfer-time")
		count     = flag.Int("count", 0, "limit the returned list (0 = all)")
		bytes     = flag.Int64("bytes", 0, "task data size hint for transfer-time ranking")
		watch     = flag.Duration("watch", 0, "re-query at this interval (0 = once)")
	)
	flag.Parse()

	query := func() error {
		resp, err := live.Query(*scheduler, &wire.QueryRequest{
			From:      *from,
			Metric:    *metric,
			Count:     *count,
			Sorted:    true,
			DataBytes: *bytes,
		}, 5*time.Second)
		if err != nil {
			return err
		}
		tb := stats.NewTable("rank", "server", "est. delay", "est. bandwidth", "hops")
		for i, c := range resp.Candidates {
			tb.AddRow(i+1, c.Node, c.Delay().Round(time.Millisecond),
				fmt.Sprintf("%.1f Mbps", c.BandwidthBps/1e6), c.Hops)
		}
		fmt.Println(tb.String())
		return nil
	}

	if err := query(); err != nil {
		fmt.Fprintf(os.Stderr, "intdevice: %v\n", err)
		os.Exit(1)
	}
	if *watch <= 0 {
		return
	}
	for range time.Tick(*watch) {
		fmt.Printf("--- %s ---\n", time.Now().Format("15:04:05"))
		if err := query(); err != nil {
			fmt.Fprintf(os.Stderr, "intdevice: %v\n", err)
		}
	}
}
