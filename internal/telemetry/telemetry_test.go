package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestStackAppendAndPath(t *testing.T) {
	var s Stack
	s.Append(Record{Device: "s1"})
	s.Append(Record{Device: "s2"})
	s.Append(Record{Device: "s3"})
	path := s.Path()
	if len(path) != 3 || path[0] != "s1" || path[2] != "s3" {
		t.Fatalf("path %v", path)
	}
	if s.Truncated {
		t.Fatal("unexpectedly truncated")
	}
}

func TestStackTruncationAtBudget(t *testing.T) {
	var s Stack
	for i := 0; i < MaxRecords+5; i++ {
		s.Append(Record{Device: "sw"})
	}
	if len(s.Records) != MaxRecords {
		t.Fatalf("got %d records, want cap %d", len(s.Records), MaxRecords)
	}
	if !s.Truncated {
		t.Fatal("truncation flag not set")
	}
}

func TestRecordMaxQueueFor(t *testing.T) {
	r := Record{Queues: []PortQueue{{Port: 0, MaxQueue: 3}, {Port: 2, MaxQueue: 9}}}
	if q, ok := r.MaxQueueFor(2); !ok || q != 9 {
		t.Fatalf("port 2: %d,%v", q, ok)
	}
	if q, ok := r.MaxQueueFor(0); !ok || q != 3 {
		t.Fatalf("port 0: %d,%v", q, ok)
	}
	if _, ok := r.MaxQueueFor(1); ok {
		t.Fatal("missing port reported present")
	}
}

func TestStackString(t *testing.T) {
	var s Stack
	s.Append(Record{Device: "s1", IngressPort: 1, EgressPort: 2, LinkLatency: 10 * time.Millisecond})
	s.Append(Record{Device: "s2"})
	out := s.String()
	if !strings.Contains(out, "s1") || !strings.Contains(out, "->") {
		t.Fatalf("string %q", out)
	}
	s.Truncated = true
	if !strings.Contains(s.String(), "truncated") {
		t.Fatal("truncated marker missing")
	}
}
