package experiment

import (
	"strings"
	"testing"

	"intsched/internal/telemetry"
)

func telemetryTestConfig() TelemetryConfig {
	return TelemetryConfig{
		Seed:      3,
		TaskCount: 40,
		Rates:     []float64{1.0, 0.25},
		Rounds:    6,
		Smoke:     true,
	}
}

// TestTelemetrySmoke: the sweep runs end to end, the p=1.0 identity check
// passes (enforced inside Telemetry), probabilistic cells actually
// reassemble fragments, and lower sampling rates shrink probes.
func TestTelemetrySmoke(t *testing.T) {
	res, err := serial.Telemetry(telemetryTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quality) != 3 || len(res.Overhead) != 3 {
		t.Fatalf("quality=%d overhead=%d cells, want 3/3", len(res.Quality), len(res.Overhead))
	}
	det := res.Quality[0]
	if det.Mode != "deterministic" || det.RecordsReassembled != 0 {
		t.Fatalf("baseline cell %+v", det)
	}
	if det.Decisions == 0 || det.TelemetryBytes == 0 {
		t.Fatalf("baseline made no decisions or ingested no telemetry: %+v", det)
	}
	for _, c := range res.Quality[1:] {
		if c.Decisions != det.Decisions {
			t.Fatalf("cell %s: %d decisions, det made %d (same workload)", c.Mode, c.Decisions, det.Decisions)
		}
		if c.RecordsReassembled == 0 {
			t.Fatalf("cell %s reassembled nothing", c.Mode)
		}
	}
	// Full-rate sampling is the identity: same digest, same byte volume.
	if full := res.Quality[1]; full.Digest != det.Digest || full.TelemetryBytes != det.TelemetryBytes {
		t.Fatalf("p=1.0 cell diverged from deterministic: %+v vs %+v", full, det)
	}
	// Overhead: bytes per probe must fall monotonically with the rate.
	over := res.Overhead
	if over[0].Probes == 0 || over[0].BytesPerProbe <= 0 {
		t.Fatalf("overhead baseline measured nothing: %+v", over[0])
	}
	for i, c := range over {
		if c.Probes != over[0].Probes {
			t.Fatalf("cell %s: %d probes, det sent %d (same rig)", c.Mode, c.Probes, over[0].Probes)
		}
		if i > 1 && c.BytesPerProbe >= over[i-1].BytesPerProbe {
			t.Fatalf("bytes/probe not shrinking: %s %.1f vs %s %.1f",
				c.Mode, c.BytesPerProbe, over[i-1].Mode, over[i-1].BytesPerProbe)
		}
	}
	if last := over[len(over)-1]; last.Reduction < 1.5 {
		t.Fatalf("p=%.2f reduction only %.2fx", last.Rate, last.Reduction)
	}
	if over[len(over)-1].ReassemblyCompletions == 0 {
		t.Fatal("overhead rig closed no reassembly cycles")
	}
}

// TestOverheadRigDeliveryCheck: on the paper's 20 Mb/s links a metro fleet
// offers its scheduler's access link more than it carries, most probes are
// dropped, and the cell must fail rather than average bytes/probe over the
// survivors (what the full-size rig did before it ran at 1 Gb/s).
func TestOverheadRigDeliveryCheck(t *testing.T) {
	spec, err := MetroSpec(MetroConfig{Regions: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ax := telemetryAxis{telemetry.ModeDeterministic, 1.0}
	if _, err := runTelemetryOverheadCell(spec, ax, 3, 4); err == nil || !strings.Contains(err.Error(), "probes sent") {
		t.Fatalf("20 Mb/s fabric: err = %v, want the delivery check to fire", err)
	}
	spec.RateBps = overheadRateBps
	cell, err := runTelemetryOverheadCell(spec, ax, 3, 4)
	if err != nil {
		t.Fatalf("1 Gb/s fabric: %v", err)
	}
	if cell.Probes == 0 {
		t.Fatal("1 Gb/s fabric ingested nothing")
	}
}
