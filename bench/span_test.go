package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, call: callQuery},
		{start: 10, end: 40, parent: 0, call: callSnapshot},
		{start: 50, end: 90, parent: 0, call: callRank},
		{start: 60, end: 70, parent: 2, call: callSnapshot},
		{start: 200, end: 230, parent: -1, call: callUDPWrite, track: 1},
	}
	self := selfTimes(spans)
	want := map[layerCall]time.Duration{
		callQuery:    30, // 100 - 30 - 40
		callSnapshot: 40, // 30 + 10
		callRank:     30, // 40 - 10
		callUDPWrite: 30,
	}
	for call, w := range want {
		if self[call] != w {
			t.Errorf("%s self time = %d, want %d", layerCallNames[call], self[call], w)
		}
	}
	// Only the client's top-level spans explain its window.
	if got := accountedTime(spans); got != 100 {
		t.Errorf("accounted = %d, want 100", got)
	}
}

func TestTracerNestsAndAdopts(t *testing.T) {
	var none *tracer
	none.end(none.begin(callQuery, 1)) // a nil tracer records nothing

	tr := newTracer(4, 0)
	outer := tr.begin(callQuery, 7)
	inner := tr.begin(callRank, 7)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].parent != outer || tr.spans[outer].parent != -1 {
		t.Fatalf("nesting lost: %+v", tr.spans)
	}
	if tr.spans[outer].end < tr.spans[inner].end || tr.spans[inner].start < tr.spans[outer].start {
		t.Fatalf("inner span not inside outer: %+v", tr.spans)
	}

	feeder := newTracer(2, 1)
	a := feeder.begin(callUDPWrite, 0)
	b := feeder.begin(callUDPWrite, 0)
	feeder.end(b)
	feeder.end(a)
	tr.adopt(feeder)
	if len(tr.spans) != 4 || tr.spans[3].parent != 2 || tr.spans[3].track != 1 {
		t.Fatalf("adopted spans mislinked: %+v", tr.spans)
	}
	if tr.spans[2].start < tr.spans[0].start {
		t.Fatalf("adopted span starts before the earlier tracer's first span")
	}
}
