package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRetiredOptionsRejected: the metric name and the flags of extensions
// that lost their trial, and the unpaired seed replication (multi-seed rows
// are intbench's paired rows), are gone, not hidden — asking for any exits
// non-zero and prints the usage.
func TestRetiredOptionsRejected(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "intsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-metric", "compute-aware", "-tasks", "1"},
		{"-hysteresis", "0.2", "-tasks", "1"},
		{"-telemetry-mode", "probabilistic", "-tasks", "1"},
		{"-sample-rate", "0.5", "-tasks", "1"},
		{"-queue-delta", "1", "-tasks", "1"},
		{"-seeds", "2", "-tasks", "1"},
		{"-parallel", "2", "-tasks", "1"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("intsim %v: err %v, want a non-zero exit\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "-metric string") {
			t.Fatalf("intsim %v printed no usage:\n%s", args, out)
		}
	}
	// The surviving extension's name still runs.
	if out, err := exec.Command(bin, "-metric", "transfer-time", "-tasks", "1").CombinedOutput(); err != nil {
		t.Fatalf("intsim -metric transfer-time: %v\n%s", err, out)
	}
}
