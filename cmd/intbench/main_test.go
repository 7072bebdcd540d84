package main

import (
	"flag"
	"testing"
)

// TestSmokeYieldsToExplicitTasks: -smoke lets the sweeps size themselves
// (the -tasks default of 200 used to override smoke's 60), and an explicit
// -tasks still wins.
func TestSmokeYieldsToExplicitTasks(t *testing.T) {
	if got := sweepTasks(); got != 200 {
		t.Fatalf("no flags: sweepTasks() = %d, want the -tasks default", got)
	}
	if err := flag.Set("smoke", "true"); err != nil {
		t.Fatal(err)
	}
	if got := sweepTasks(); got != 0 {
		t.Fatalf("-smoke: sweepTasks() = %d, want 0 (sweep sizes itself)", got)
	}
	if err := flag.Set("tasks", "200"); err != nil {
		t.Fatal(err)
	}
	if got := sweepTasks(); got != 200 {
		t.Fatalf("-smoke -tasks 200: sweepTasks() = %d, want 200", got)
	}
}
