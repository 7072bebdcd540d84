package collector

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotRaceUnderConcurrentIngest: probes from many goroutines while
// readers snapshot, walk paths, and read every reporting surface. Run under
// -race (the CI test job does).
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
