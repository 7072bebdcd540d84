package main

import (
	"bytes"
	"strings"
	"testing"

	"intsched/internal/experiment"
)

func toyClosTrace(t *testing.T, seed int64, rounds int) *probeTrace {
	t.Helper()
	spec, err := experiment.ClosSpec(experiment.ClosConfig{Seed: seed, Pods: toySize.closPods})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := generateTrace(spec, rounds)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTraceIsDeterministicPerSeed(t *testing.T) {
	a, b, c := toyClosTrace(t, 7, 3), toyClosTrace(t, 7, 3), toyClosTrace(t, 8, 3)
	if !bytes.Equal(a.arena, b.arena) {
		t.Error("same seed produced different probe payloads")
	}
	for i := range a.at {
		if a.at[i] != b.at[i] {
			t.Fatalf("same seed: probe %d arrives at %d and %d", i, a.at[i], b.at[i])
		}
	}
	if bytes.Equal(a.arena, c.arena) {
		t.Error("seed 7 and seed 8 produced identical probe payloads")
	}
}

func TestTraceCoversEveryOriginEveryRound(t *testing.T) {
	tr := toyClosTrace(t, 1, 4)
	// 2 pods x 8 ToRs x 2 hosts, one of them the scheduler.
	if got, want := tr.perRound(), 31; got != want {
		t.Fatalf("origins per round = %d, want %d", got, want)
	}
	if tr.deliveredShare() != 1 || tr.probes() != 4*31 {
		t.Fatalf("delivered share %v, captured %d probes", tr.deliveredShare(), tr.probes())
	}
	// Swapping a probe for a copy of its neighbour leaves one origin out of
	// the round and another in it twice.
	lo, _ := tr.round(2)
	copy(tr.arena[tr.off[lo]:tr.off[lo+1]], tr.payload(lo+1))
	err := tr.checkCoverage("corrupted")
	if err == nil || !strings.Contains(err.Error(), "round 2") {
		t.Fatalf("corrupted round 2 not reported: %v", err)
	}
}
