package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"intsched/internal/obs"
	"intsched/internal/telemetry"
	"intsched/internal/wire"
)

// sendRaw delivers one raw datagram to the daemon's probe socket.
func sendRaw(t *testing.T, addr string, buf []byte) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

func marshalDatagram(t *testing.T, d *wire.Datagram) []byte {
	t.Helper()
	buf, err := d.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDaemonBadInputCounted feeds the probe socket every class of malformed
// input and checks that each lands in its own counter instead of being
// silently swallowed.
func TestDaemonBadInputCounted(t *testing.T) {
	d, err := NewCollectorDaemon("sched", DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// 1. Garbage bytes: datagram unmarshal failure.
	sendRaw(t, d.UDPAddr(), []byte{0xde, 0xad, 0xbe, 0xef})
	// 2. Well-formed datagram of a non-probe kind.
	sendRaw(t, d.UDPAddr(), marshalDatagram(t, &wire.Datagram{
		Kind: wire.KindData, TTL: wire.DefaultTTL, Src: "dev", Dst: "sched",
	}))
	// 3. Probe-kind datagram whose INT payload does not decode.
	sendRaw(t, d.UDPAddr(), marshalDatagram(t, &wire.Datagram{
		Kind: wire.KindProbe, TTL: wire.DefaultTTL, Src: "dev", Dst: "sched",
		Payload: []byte{0x01, 0x02},
	}))
	// 4. A valid probe.
	encoded, err := telemetry.MarshalProbe(&telemetry.ProbePayload{Origin: "e1", Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	sendRaw(t, d.UDPAddr(), marshalDatagram(t, &wire.Datagram{
		Kind: wire.KindProbe, TTL: wire.DefaultTTL, Src: "e1", Dst: "sched",
		Payload: encoded,
	}))
	// 5. A newer probe whose mode byte marks it sampled: its stack is not
	// its whole path, so it is a payload error and teaches nothing.
	sampled, err := telemetry.MarshalProbe(&telemetry.ProbePayload{Origin: "e1", Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	sampled[4] = 1 // magic(2) version(1) flags(1), then mode
	sendRaw(t, d.UDPAddr(), marshalDatagram(t, &wire.Datagram{
		Kind: wire.KindProbe, TTL: wire.DefaultTTL, Src: "e1", Dst: "sched",
		Payload: sampled,
	}))

	waitFor(t, 5*time.Second, func() bool {
		st := d.Stats()
		return st.DatagramErrors == 1 && st.UnexpectedKinds == 1 &&
			st.PayloadErrors == 2 && st.ProbesReceived == 1
	}, "each drop class counted")
	if epoch := d.Collector().Epoch(); epoch != 1 {
		t.Fatalf("epoch %d after one accepted probe, want 1", epoch)
	}
}

// TestDaemonAnswerErrorPaths exercises the query paths that do not produce a
// ranking: unknown metrics, metrics not served live, an empty learned
// topology, and Count truncation of a populated one.
func TestDaemonAnswerErrorPaths(t *testing.T) {
	d, err := NewCollectorDaemon("sched", DaemonConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if resp := d.Answer(&wire.QueryRequest{From: "dev", Metric: "bogus"}); !strings.Contains(resp.Error, "unknown metric") {
		t.Fatalf("unknown metric: %+v", resp)
	}
	// The name of a retired metric is an unknown metric like any other, not
	// a silent empty list.
	if resp := d.Answer(&wire.QueryRequest{From: "dev", Metric: "compute-aware"}); !strings.Contains(resp.Error, "unknown metric") || len(resp.Candidates) != 0 {
		t.Fatalf("retired metric: %+v", resp)
	}
	if resp := d.Answer(&wire.QueryRequest{From: "dev", Metric: "nearest"}); !strings.Contains(resp.Error, "not served live") {
		t.Fatalf("unserved metric: %+v", resp)
	}
	// Empty topology: no error and no usable candidates — only the daemon's
	// own node is known, and it is unreachable without learned paths.
	if resp := d.Answer(&wire.QueryRequest{From: "dev", Metric: "delay"}); resp.Error != "" ||
		len(resp.Candidates) != 1 || resp.Candidates[0].Node != "sched" || resp.Candidates[0].Reachable {
		t.Fatalf("empty topology: %+v", resp)
	}
	// All three rejections were counted.
	var errorsTotal float64
	for _, m := range d.Metrics().Snapshot() {
		if m.Name == "intsched_query_errors_total" {
			errorsTotal = m.Value
		}
	}
	if errorsTotal != 3 {
		t.Fatalf("query errors counted %v, want 3", errorsTotal)
	}

	// Learn three hosts via direct host-to-host probes, then truncate.
	for i, origin := range []string{"e1", "e2", "e3"} {
		encoded, err := telemetry.MarshalProbe(&telemetry.ProbePayload{Origin: origin, Seq: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := telemetry.UnmarshalProbe(encoded)
		if err != nil {
			t.Fatal(err)
		}
		d.Collector().HandleProbe(payload)
	}
	full := d.Answer(&wire.QueryRequest{From: "e1", Metric: "delay", Sorted: true})
	if full.Error != "" || len(full.Candidates) != 3 {
		t.Fatalf("full answer: %+v", full)
	}
	truncated := d.Answer(&wire.QueryRequest{From: "e1", Metric: "delay", Sorted: true, Count: 2})
	if truncated.Error != "" || len(truncated.Candidates) != 2 {
		t.Fatalf("truncated answer: %+v", truncated)
	}
	if truncated.Candidates[0] != full.Candidates[0] || truncated.Candidates[1] != full.Candidates[1] {
		t.Fatalf("truncation reordered: %+v vs %+v", truncated.Candidates, full.Candidates)
	}
}

// httpGet fetches a daemon observability URL and returns status and body.
func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestOverlayHealthFlip is the acceptance scenario: a live overlay whose
// /healthz degrades when one edge's probes stop for longer than the
// configured silence threshold (> queue window) and recovers when they
// resume.
func TestOverlayHealthFlip(t *testing.T) {
	spec := chainSpec()
	spec.Daemon.HTTPAddr = "127.0.0.1:0"
	spec.Daemon.QueueWindow = 150 * time.Millisecond
	spec.Daemon.DegradedAfter = 450 * time.Millisecond // 3 windows, well above the 20 ms probe cadence
	o, err := StartOverlay(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	base := "http://" + o.Daemon.HTTPAddr()

	health := func() (int, obs.HealthReport) {
		code, body := httpGet(t, base+"/healthz")
		var rep obs.HealthReport
		if err := json.Unmarshal(body, &rep); err != nil {
			t.Fatalf("healthz body %q: %v", body, err)
		}
		return code, rep
	}

	// All agents probing: health settles at ok.
	waitFor(t, 5*time.Second, func() bool {
		code, rep := health()
		return code == http.StatusOK && rep.Status == obs.HealthOK
	}, "healthy overlay")

	// Stop e1's probes: after > DegradedAfter of silence the daemon must
	// flag exactly that edge.
	o.Agents["e1"].SetPaused(true)
	waitFor(t, 5*time.Second, func() bool {
		code, rep := health()
		if code != http.StatusServiceUnavailable || !rep.Degraded() {
			return false
		}
		for _, r := range rep.Reasons {
			if strings.Contains(r, "no probes from edge e1") {
				return true
			}
		}
		return false
	}, "health degraded on e1 probe silence")

	// Resume: the next accepted probe resets e1's stream age and health
	// recovers.
	o.Agents["e1"].SetPaused(false)
	waitFor(t, 5*time.Second, func() bool {
		code, rep := health()
		return code == http.StatusOK && rep.Status == obs.HealthOK
	}, "health recovered after probes resumed")
}

// TestOverlayMetricsEndpoint checks both exposition formats against a live
// overlay.
func TestOverlayMetricsEndpoint(t *testing.T) {
	spec := chainSpec()
	spec.Daemon.HTTPAddr = "127.0.0.1:0"
	o, err := StartOverlay(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	waitFor(t, 5*time.Second, func() bool {
		return o.Daemon.Stats().ProbesReceived >= 6
	}, "probes at the daemon")

	code, body := httpGet(t, "http://"+o.Daemon.HTTPAddr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE intsched_probes_received_total counter",
		"intsched_probes_received_total ",
		"intsched_collector_epoch ",
		`intsched_query_latency_seconds_bucket{metric="delay",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	code, body = httpGet(t, "http://"+o.Daemon.HTTPAddr()+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("json metrics status %d", code)
	}
	var series []obs.MetricSnapshot
	if err := json.Unmarshal(body, &series); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range series {
		if m.Name == "intsched_probes_received_total" && m.Value >= 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("json exposition missing probes counter: %+v", series)
	}
}

// TestOverlayMetricsScrapeRace scrapes /metrics and /healthz concurrently
// with TCP ranking queries while the probe fleet churns the collector —
// the full observability read path under go test -race.
func TestOverlayMetricsScrapeRace(t *testing.T) {
	spec := chainSpec()
	spec.Daemon.HTTPAddr = "127.0.0.1:0"
	o, err := StartOverlay(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	waitFor(t, 5*time.Second, func() bool {
		return len(o.Daemon.Collector().Snapshot().Hosts()) == 4
	}, "learned hosts")

	base := "http://" + o.Daemon.HTTPAddr()
	queryAddr := o.Daemon.QueryAddr()
	const scrapers, queriers, iters = 4, 4, 15
	errs := make(chan error, scrapers+queriers)
	for g := 0; g < scrapers; g++ {
		go func(g int) {
			paths := []string{"/metrics", "/metrics?format=json", "/healthz"}
			for i := 0; i < iters; i++ {
				resp, err := http.Get(base + paths[(g+i)%len(paths)])
				if err != nil {
					errs <- err
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < queriers; g++ {
		go func(g int) {
			metrics := []string{"delay", "bandwidth"}
			for i := 0; i < iters; i++ {
				resp, err := Query(queryAddr, &wire.QueryRequest{
					From: "dev", Metric: metrics[(g+i)%2], Sorted: true,
				}, 3*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if len(resp.Candidates) != 3 {
					errs <- fmt.Errorf("scrape-race query: %+v", resp.Candidates)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < scrapers+queriers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Queries were answered during the scrape window, so the latency
	// histograms must have observations.
	lat, ok := o.Daemon.Metrics().FindHistogram("intsched_query_latency_seconds")
	if !ok || lat.Count < queriers*iters {
		t.Fatalf("query latency histogram %+v ok=%v", lat, ok)
	}
}
