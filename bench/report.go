package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// metricDef names one metric the benchmark emits.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
}

// endToEnd lists what a user of the system sees, in BENCHMARK.json order.
// Every workload reports every one of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer lists the single-layer metrics of a traced run. A workload that
// does not reach a layer reports 0 for that layer's workload-bound metrics.
// The direction says which way is good; nothing gates on a layer metric.
var perLayer = []metricDef{
	{"gen.trace_delivered_share", "share", "higher"},
	{"telemetry.decode_ns_per_probe", "ns", "lower"},
	{"telemetry.encode_ns_per_probe", "ns", "lower"},
	{"telemetry.bytes_per_probe", "B", "lower"},
	{"telemetry.records_per_probe", "count", "lower"},
	{"collector.ingest_ns_per_probe", "ns", "lower"},
	{"collector.ingest_allocs_per_probe", "count", "lower"},
	{"collector.snapshot_cold_us_p50", "us", "lower"},
	{"collector.snapshot_warm_ns", "ns", "lower"},
	{"collector.path_into_ns", "ns", "lower"},
	{"collector.epochs_per_round", "count", "lower"},
	{"collector.probes_out_of_order", "count", "lower"},
	{"collector.path_remaps", "count", "lower"},
	{"collector.rankable_p50_us", "us", "lower"},
	{"core.rank_cold_us", "us", "lower"},
	{"core.rank_warm_ns", "ns", "lower"},
	{"core.rank_cache_hit_share", "share", "higher"},
	{"live.answer_warm_us", "us", "lower"},
	{"live.answer_cold_us", "us", "lower"},
	{"live.probe_delivery_share", "share", "higher"},
	{"live.ingest_drops", "count", "lower"},
	{"live.feed_late_ms_max", "ms", "lower"},
	{"live.setup_drain_s", "s", "lower"},
	{"live.setup_first_pass_s", "s", "lower"},
	{"wire.dial_close_us", "us", "lower"},
	{"wire.req_frame_ns", "ns", "lower"},
	{"wire.resp_frame_ns", "ns", "lower"},
	{"wire.resp_bytes", "B", "lower"},
	{"wire.datagram_ns", "ns", "lower"},
	{"wire.query_self_us", "us", "lower"},
	{"simtime.events_per_s", "1/s", "higher"},
	{"netsim.ns_per_packet_hop", "ns", "lower"},
	{"dataplane.ns_per_packet", "ns", "lower"},
	{"transport.tcp_wall_ms_per_mb", "ms/MB", "lower"},
	{"sim.events_per_sim_s", "1/s", "lower"},
	{"sim.wall_ns_per_event", "ns", "lower"},
	{"sim.probes_sent", "count", "lower"},
	{"sim.probes_received", "count", "higher"},
	{"sim.packets_dropped", "count", "lower"},
	{"sim.gain_serverless_delay", "share", "higher"},
	{"sim.gain_distributed_bw", "share", "higher"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_bytes_per_op", "B", "lower"},
	{"proc.gc_cpu_share", "share", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"client.sample_count", "count", "higher"},
	{"client.op_p99_us", "us", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.accounted_share", "share", "higher"},
}

// reading is one measured value.
type reading struct {
	value   float64
	samples int
}

// report collects one workload run's readings and check results.
type report struct {
	workload  string
	attempted int
	failed    int
	values    map[string]reading
	problems  []string
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]reading)}
}

// set records a metric's value and the number of samples behind it.
func (r *report) set(name string, value float64, samples int) {
	r.values[name] = reading{value, samples}
}

// check records a failed output check, naming what was expected and what
// the program produced.
func (r *report) check(name string, ok bool, want, got any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf("%s: check %s failed: want %v, got %v", r.workload, name, want, got))
	}
}

// correct reports whether every output check passed and no value is
// unusable.
func (r *report) correct() bool { return len(r.problems) == 0 }

// print writes one line per metric of defs (workload, name, value, unit,
// direction, samples) and then the result object the driver reads.
func (r *report) print(w io.Writer, defs []metricDef) {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			r.check("finite "+d.name, false, "a finite value", v.value)
			v.value = 0
		}
		fmt.Fprintf(w, "%s\t%s\t%v\t%s\t%s\t%d\n", r.workload, d.name, v.value, d.unit, d.better, v.samples)
		out.Metrics[d.name] = jsonMetric{v.value, d.unit}
	}
	out.Correct = r.correct() && r.failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintf(w, "%s\n", line)
}
