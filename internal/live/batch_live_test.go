package live

import (
	"reflect"
	"testing"
	"time"

	"intsched/internal/wire"
)

// TestOverlayBatchQuery: a daemon with asynchronous ingest answers a
// batched TCP query; every batch element must match the corresponding single
// query, and per-element failures must not fail the batch.
func TestOverlayBatchQuery(t *testing.T) {
	spec := chainSpec()
	spec.IngestQueue = 64
	o, err := StartOverlay(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	waitFor(t, 5*time.Second, func() bool {
		return len(o.Daemon.Collector().Snapshot().Hosts()) == 4
	}, "learned hosts")

	items := []wire.QueryRequest{
		{From: "dev", Metric: "delay", Sorted: true},
		{From: "e2", Metric: "bandwidth", Sorted: true, Count: 2},
		{From: "dev", Metric: "no-such-metric"},
	}
	resp, err := Query(o.Daemon.QueryAddr(), &wire.QueryRequest{Batch: items}, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Batch) != len(items) {
		t.Fatalf("batch returned %d entries for %d items", len(resp.Batch), len(items))
	}
	// The overlay is idle between probe rounds; re-asking each query singly
	// against the same learned state must reproduce the batch answers.
	for i, item := range items[:2] {
		single := o.Daemon.Answer(&item)
		if !reflect.DeepEqual(resp.Batch[i].Candidates, single.Candidates) {
			t.Fatalf("batch item %d %+v != single %+v", i, resp.Batch[i].Candidates, single.Candidates)
		}
		if resp.Batch[i].Error != "" {
			t.Fatalf("batch item %d failed: %s", i, resp.Batch[i].Error)
		}
	}
	if resp.Batch[2].Error == "" {
		t.Fatal("unknown metric in a batch must set that element's Error")
	}
	if len(resp.Batch[0].Candidates) != 3 || len(resp.Batch[1].Candidates) != 2 {
		t.Fatalf("batch shaping: %d and %d candidates", len(resp.Batch[0].Candidates), len(resp.Batch[1].Candidates))
	}
}

// TestDaemonNestedBatchRejected: batch elements may not nest further
// batches; the element fails, the batch survives.
func TestDaemonNestedBatchRejected(t *testing.T) {
	d, err := NewCollectorDaemon("sched", DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp := d.Answer(&wire.QueryRequest{Batch: []wire.QueryRequest{
		{Batch: []wire.QueryRequest{{From: "dev", Metric: "delay"}}},
		{From: "dev", Metric: "delay", Sorted: true},
	}})
	if len(resp.Batch) != 2 {
		t.Fatalf("batch %+v", resp)
	}
	if resp.Batch[0].Error == "" {
		t.Fatal("nested batch accepted")
	}
	if resp.Batch[1].Error != "" {
		t.Fatalf("sibling of a failed element failed too: %s", resp.Batch[1].Error)
	}
}
