package collector

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"intsched/internal/telemetry"
)

// TestSnapshotRaceUnderConcurrentIngest: probes from many goroutines while
// readers snapshot, walk paths, and read every reporting surface. Run under
// -race (the CI pool-race job does).
func TestSnapshotRaceUnderConcurrentIngest(t *testing.T) {
	var nowNs atomic.Int64
	nowNs.Store(int64(time.Second))
	c := New("sched", func() time.Duration { return time.Duration(nowNs.Load()) },
		Config{QueueWindow: 200 * time.Millisecond})
	now := func() time.Duration { return time.Duration(nowNs.Load()) }

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			origin := fmt.Sprintf("n%d", w)
			// All writers traverse the shared core s0.
			for i := 0; i < 300; i++ {
				nowNs.Add(int64(time.Millisecond))
				c.HandleProbe(probeFrom(origin, uint64(i+1), 5*time.Millisecond,
					devSpec{id: fmt.Sprintf("s%d", w+1), in: 0, out: 1, queues: map[int]int{1: i % 7}, egressTS: now()},
					devSpec{id: "s0", in: w, out: 9, egressTS: now()}))
			}
		}()
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				topo := c.Snapshot()
				for _, h := range topo.Hosts() {
					if h == "sched" {
						continue
					}
					_, _ = topo.Path(h, "sched")
				}
				topo.QueueMax("s0", "sched")
				c.Stats()
				c.EvictedEdges()
				c.ProbeStreams()
				c.Coverage()
				c.StreamSignals()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	topo := c.Snapshot()
	for w := 0; w < writers; w++ {
		if _, err := topo.Path(fmt.Sprintf("n%d", w), "sched"); err != nil {
			t.Fatalf("writer %d path: %v", w, err)
		}
	}
	if got := c.Stats().ProbesReceived; got != writers*300 {
		t.Fatalf("probes received %d, want %d", got, writers*300)
	}
}

// TestAsyncIngestWorkers: the ingest queue must preserve stream order, clone
// payloads (callers reuse them), and count drops instead of blocking when it
// fills.
func TestAsyncIngestWorkers(t *testing.T) {
	var nowNs atomic.Int64
	nowNs.Store(int64(time.Second))
	c := New("sched", func() time.Duration { return time.Duration(nowNs.Load()) },
		Config{QueueWindow: time.Hour})
	c.StartIngestWorkers(64)

	// Reuse one payload object across sends, as the live datagram loop does.
	var reused telemetry.ProbePayload
	for i := 0; i < 50; i++ {
		reused = telemetry.ProbePayload{Origin: "n1", Seq: uint64(i + 1)}
		reused.Stack.Append(telemetry.Record{Device: "s1", EgressPort: 1,
			LinkLatency: 5 * time.Millisecond,
			Queues:      []telemetry.PortQueue{{Port: 1, MaxQueue: i, Packets: 1}}})
		c.EnqueueProbe(&reused)
	}
	c.StopIngestWorkers()
	if got := c.Stats().ProbesReceived; got != 50 {
		t.Fatalf("async ingest received %d, want 50", got)
	}
	if got := c.Stats().ProbesOutOfOrder; got != 0 {
		t.Fatalf("async ingest reordered a single stream: %d", got)
	}
	if q, ok := c.MaxQueue("s1", 1); !ok || q != 49 {
		t.Fatalf("windowed max %d,%v want 49 (payload clone corrupted?)", q, ok)
	}
	// A full queue drops and counts instead of blocking the caller: with the
	// collector's lock held the worker cannot drain, so of ten probes at
	// most one is in the worker's hands and four are queued.
	c.StartIngestWorkers(4)
	c.mu.Lock()
	for i := 0; i < 10; i++ {
		c.EnqueueProbe(&telemetry.ProbePayload{Origin: "n2", Seq: uint64(i + 1)})
	}
	c.mu.Unlock()
	c.StopIngestWorkers()
	drops, received := c.IngestDrops(), c.Stats().ProbesReceived-50
	if drops < 5 || drops+received != 10 {
		t.Fatalf("full queue: %d dropped, %d ingested of 10 (want >= 5 dropped, none lost uncounted)", drops, received)
	}

	// After StopIngestWorkers, EnqueueProbe falls back to synchronous.
	p := telemetry.ProbePayload{Origin: "n1", Seq: 51}
	p.Stack.Append(telemetry.Record{Device: "s1", EgressPort: 1, LinkLatency: time.Millisecond})
	if !c.EnqueueProbe(&p) {
		t.Fatal("synchronous fallback dropped a probe")
	}
	if got := c.Stats().ProbesReceived - received; got != 51 {
		t.Fatalf("fallback not ingested: %d", got)
	}
}
