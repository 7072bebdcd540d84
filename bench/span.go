package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// layerCall names a call the benchmark makes into a layer.
type layerCall uint8

const (
	callRun      layerCall = iota // experiment.Run
	callDecode                    // telemetry.UnmarshalProbeInto
	callIngest                    // collector.HandleProbe
	callSnapshot                  // collector.Snapshot
	callRank                      // core.ComputeRanking
	callQuery                     // live.Query
	callUDPWrite                  // the feeder's datagram write
)

var layerCallNames = [...]string{
	callRun:      "experiment.run",
	callDecode:   "telemetry.decode",
	callIngest:   "collector.ingest",
	callSnapshot: "collector.snapshot",
	callRank:     "core.rank",
	callQuery:    "live.query",
	callUDPWrite: "udp.write",
}

// span is one timed call into a layer. It holds no pointers, so a million
// recorded spans add nothing for the collector to scan during a traced
// window.
type span struct {
	start, end int64 // ns since the tracer was created
	parent     int32 // index of the enclosing span, -1 at top level
	op         int32 // operation the span belongs to
	call       layerCall
	track      uint8 // goroutine that recorded it: 0 client, 1 feeder
}

// tracer records spans in memory for one goroutine. A nil tracer records
// nothing, so untraced windows run the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	track uint8
}

// newTracer preallocates room for capacity spans, so recording allocates
// nothing until a window outgrows it.
func newTracer(capacity int, track uint8) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), open: make([]int32, 0, 8), track: track}
}

// begin opens a span under the innermost open span and returns its index.
func (t *tracer) begin(call layerCall, op int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.t0)), parent: parent, op: int32(op), call: call, track: t.track})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// adopt appends the spans another goroutine's tracer recorded, on this
// tracer's clock. Call it once both goroutines have stopped recording.
func (t *tracer) adopt(other *tracer) {
	if t == nil || other == nil {
		return
	}
	shift := int64(other.t0.Sub(t.t0))
	base := int32(len(t.spans))
	for _, s := range other.spans {
		s.start += shift
		s.end += shift
		if s.parent >= 0 {
			s.parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes returns each call's total self time: span duration minus the
// time covered by the span's direct children.
func selfTimes(spans []span) map[layerCall]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := make(map[layerCall]time.Duration)
	for i, s := range spans {
		self[s.call] += time.Duration(s.end - s.start - child[i])
	}
	return self
}

// accountedTime is the time the client goroutine spent inside layer calls:
// the part of a window the trace explains.
func accountedTime(spans []span) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.track == 0 && s.parent < 0 {
			total += time.Duration(s.end - s.start)
		}
	}
	return total
}

// writeTrace writes the spans of a traced run, and their self-time totals,
// to path.
func writeTrace(path string, spans []span) error {
	type jsonSpan struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op"`
		Track  uint8  `json:"track"`
	}
	type layerTotal struct {
		Name   string `json:"name"`
		SelfNs int64  `json:"self_ns"`
	}
	out := struct {
		SelfTimes []layerTotal `json:"self_times"`
		Spans     []jsonSpan   `json:"spans"`
	}{Spans: make([]jsonSpan, len(spans))}
	for call, self := range selfTimes(spans) {
		out.SelfTimes = append(out.SelfTimes, layerTotal{layerCallNames[call], int64(self)})
	}
	sort.Slice(out.SelfTimes, func(i, j int) bool { return out.SelfTimes[i].Name < out.SelfTimes[j].Name })
	for i, s := range spans {
		out.Spans[i] = jsonSpan{layerCallNames[s.call], s.start, s.end, s.parent, s.op, s.track}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
