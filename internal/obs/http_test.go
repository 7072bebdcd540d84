package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerMetricsFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter(Opts{Name: "intsched_probes_total"}).Add(2)
	srv := httptest.NewServer(Handler(r, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "intsched_probes_total 2") {
		t.Fatalf("exposition:\n%s", body)
	}

	resp2, err := http.Get(srv.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var series []MetricSnapshot
	if err := json.NewDecoder(resp2.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Name != "intsched_probes_total" || series[0].Value != 2 {
		t.Fatalf("json series %+v", series)
	}
}

func TestHandlerHealthz(t *testing.T) {
	var h Health
	degraded := false
	h.Register("probe-liveness", func() []string {
		if degraded {
			return []string{"no probes from edge e1"}
		}
		return nil
	})
	srv := httptest.NewServer(Handler(NewRegistry(), &h))
	defer srv.Close()

	get := func() (int, HealthReport) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rep HealthReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rep
	}
	if code, rep := get(); code != http.StatusOK || rep.Status != HealthOK {
		t.Fatalf("healthy: %d %+v", code, rep)
	}
	degraded = true
	if code, rep := get(); code != http.StatusServiceUnavailable || !rep.Degraded() || len(rep.Reasons) != 1 {
		t.Fatalf("degraded: %d %+v", code, rep)
	}
}
