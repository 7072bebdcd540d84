package live

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"intsched/internal/collector"
	"intsched/internal/wire"
)

// starDaemon starts a daemon on tcpAddr that has learned the star fabric of
// starRound and whose state then stays as it is: no aging, no feed.
func starDaemon(t *testing.T, tcpAddr string) *CollectorDaemon {
	t.Helper()
	d, err := NewCollectorDaemon("sched", DaemonConfig{
		TCPAddr: tcpAddr, QueueWindow: time.Hour, AdjacencyTTL: collector.NoAdjacencyAging,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	for _, p := range starRound(1, 0, 10, 1) {
		d.Collector().HandleProbe(p)
	}
	return d
}

// daemonMetric reads one series of the daemon's registry.
func daemonMetric(t *testing.T, d *CollectorDaemon, series string) float64 {
	t.Helper()
	for _, m := range d.Metrics().Snapshot() {
		if m.Series() == series {
			return m.Value
		}
	}
	t.Fatalf("series %s not registered", series)
	return 0
}

const (
	connGauge    = "intsched_query_connections"
	shedConnCap  = `intsched_queries_shed_total{reason="conn_limit"}`
	shedTooLarge = `intsched_queries_shed_total{reason="frame_too_large"}`
	shedBadFrame = `intsched_queries_shed_total{reason="bad_frame"}`
)

// sameResponse reports how two responses differ field for field ("" when
// they do not), comparing bandwidths by their bits so that NaN equals itself.
func sameResponse(got, want *wire.QueryResponse) string {
	if got.Metric != want.Metric || got.Error != want.Error || len(got.Candidates) != len(want.Candidates) {
		return fmt.Sprintf("got %+v, want %+v", got, want)
	}
	for i, w := range want.Candidates {
		g := got.Candidates[i]
		if g.Node != w.Node || g.DelayNs != w.DelayNs || g.Hops != w.Hops || g.Reachable != w.Reachable ||
			math.Float64bits(g.BandwidthBps) != math.Float64bits(w.BandwidthBps) {
			return fmt.Sprintf("candidate %d: got %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// TestQueryWireMatchesInProcess: what a device reads off the wire is what
// the daemon computed, for every served metric in both orders, and for an
// unknown requester.
func TestQueryWireMatchesInProcess(t *testing.T) {
	d := starDaemon(t, "")
	var c Client
	defer c.CloseIdleConnections()
	var reqs []*wire.QueryRequest
	for _, sorted := range []bool{true, false} {
		for _, from := range []string{"dev", "ghost"} {
			reqs = append(reqs,
				&wire.QueryRequest{From: from, Metric: "delay", Sorted: sorted},
				&wire.QueryRequest{From: from, Metric: "bandwidth", Sorted: sorted, Count: 2},
				&wire.QueryRequest{From: from, Metric: "transfer-time", Sorted: sorted, DataBytes: 5_000_000},
			)
		}
	}
	for _, req := range reqs {
		got, err := c.Query(d.QueryAddr(), req, time.Second)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		want := d.Answer(req)
		if diff := sameResponse(got, want); diff != "" {
			t.Fatalf("%+v: %s", req, diff)
		}
		if len(want.Candidates) == 0 {
			t.Fatalf("%+v: nothing to compare", req)
		}
	}
	// A failed single query is an answer and an error both.
	resp, err := c.Query(d.QueryAddr(), &wire.QueryRequest{From: "dev", Metric: "bogus"}, time.Second)
	if err == nil || resp == nil || resp.Error != err.Error() {
		t.Fatalf("unknown metric: %+v, %v", resp, err)
	}
	if got := daemonMetric(t, d, connGauge); got != 1 {
		t.Fatalf("%v connections open after %d queries from one client", got, len(reqs)+2)
	}
}

// fakeScheduler accepts query connections and runs handle on each, with the
// connection's number (from 1). It reports how many it accepted.
func fakeScheduler(t *testing.T, handle func(n int, conn net.Conn)) (addr string, accepted *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted = new(atomic.Int32)
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := int(accepted.Add(1))
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				handle(n, conn)
			}()
		}
	}()
	return ln.Addr().String(), accepted
}

// answerOne reads one request and writes resp; false when either fails.
func answerOne(conn net.Conn, resp *wire.QueryResponse) bool {
	var req wire.QueryRequest
	return wire.ReadFrame(conn, &req) == nil && wire.WriteFrame(conn, resp) == nil
}

// TestQueryCarriesNonFiniteBandwidth: the infinities and NaN cross the
// socket bit for bit.
func TestQueryCarriesNonFiniteBandwidth(t *testing.T) {
	want := &wire.QueryResponse{Metric: "bandwidth", Candidates: []wire.CandidateInfo{
		{Node: "e0", BandwidthBps: math.Inf(1), Hops: 1, Reachable: true},
		{Node: "e1", BandwidthBps: math.Inf(-1), Hops: 2, Reachable: true},
		{Node: "e2", BandwidthBps: math.NaN(), Hops: 3},
	}}
	addr, _ := fakeScheduler(t, func(_ int, conn net.Conn) { answerOne(conn, want) })
	var c Client
	defer c.CloseIdleConnections()
	got, err := c.Query(addr, &wire.QueryRequest{From: "dev", Metric: "bandwidth"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResponse(got, want); diff != "" {
		t.Fatal(diff)
	}
}

// TestServeOneShotClient: a client that writes one frame, reads one and
// closes is served, and its connection is forgotten.
func TestServeOneShotClient(t *testing.T) {
	d := starDaemon(t, "")
	conn, err := net.Dial("tcp", d.QueryAddr())
	if err != nil {
		t.Fatal(err)
	}
	req := &wire.QueryRequest{From: "dev", Metric: "delay", Sorted: true}
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	var got wire.QueryResponse
	if err := wire.ReadFrame(conn, &got); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if diff := sameResponse(&got, d.Answer(req)); diff != "" {
		t.Fatal(diff)
	}
	waitFor(t, 2*time.Second, func() bool { return daemonMetric(t, d, connGauge) == 0 }, "the connection to be forgotten")
}

// TestServePipelinedFrames: requests written before any answer is read come
// back answered in the order they were sent.
func TestServePipelinedFrames(t *testing.T) {
	d := starDaemon(t, "")
	conn, err := net.Dial("tcp", d.QueryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	var reqs []*wire.QueryRequest
	for i := 0; i < 40; i++ {
		req := &wire.QueryRequest{
			From:   []string{"dev", "e1", "e2"}[i%3],
			Metric: []string{"delay", "bandwidth", "bogus", "transfer-time"}[i%4],
			Count:  i % 3,
			Sorted: i%2 == 0,
		}
		reqs = append(reqs, req)
		if err := wire.WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
	}
	for i, req := range reqs {
		var got wire.QueryResponse
		if err := wire.ReadFrame(conn, &got); err != nil {
			t.Fatalf("answer %d: %v", i, err)
		}
		if diff := sameResponse(&got, d.Answer(req)); diff != "" {
			t.Fatalf("answer %d: %s", i, diff)
		}
	}
}

// TestClientRetriesOnceAfterDaemonRestart: a connection parked across a
// scheduler restart is found dead and the query succeeds on a fresh dial.
func TestClientRetriesOnceAfterDaemonRestart(t *testing.T) {
	d1 := starDaemon(t, "")
	addr := d1.QueryAddr()
	var c Client
	defer c.CloseIdleConnections()
	req := &wire.QueryRequest{From: "dev", Metric: "delay", Sorted: true}
	if _, err := c.Query(addr, req, time.Second); err != nil {
		t.Fatal(err)
	}
	d1.Close()
	d2 := starDaemon(t, addr)
	if len(c.idle[addr]) != 1 {
		t.Fatalf("%d connections parked, want the one to the first daemon", len(c.idle[addr]))
	}
	got, err := c.Query(addr, req, time.Second)
	if err != nil {
		t.Fatalf("query across the restart: %v", err)
	}
	if diff := sameResponse(got, d2.Answer(req)); diff != "" {
		t.Fatal(diff)
	}
}

// TestClientRetryRule: a lost reused connection is retried exactly once, a
// lost fresh one not at all, and a timeout never.
func TestClientRetryRule(t *testing.T) {
	ok := &wire.QueryResponse{Metric: "delay"}
	req := &wire.QueryRequest{From: "dev", Metric: "delay"}

	t.Run("lost twice", func(t *testing.T) {
		// Connection 1 answers once and hangs up on its second request;
		// every later connection hangs up on its first.
		addr, accepted := fakeScheduler(t, func(n int, conn net.Conn) {
			if n == 1 && answerOne(conn, ok) {
				_ = wire.ReadFrame(conn, &wire.QueryRequest{})
			}
		})
		var c Client
		defer c.CloseIdleConnections()
		if _, err := c.Query(addr, req, time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Query(addr, req, time.Second); err == nil {
			t.Fatal("query answered by a scheduler that hangs up")
		}
		if got := accepted.Load(); got != 2 {
			t.Fatalf("%d connections made, want the parked one and one retry", got)
		}
		// Nothing is parked now, so the next loss is on a fresh dial.
		if _, err := c.Query(addr, req, time.Second); err == nil {
			t.Fatal("query answered by a scheduler that hangs up")
		}
		if got := accepted.Load(); got != 3 {
			t.Fatalf("%d connections made, want 3: a fresh dial is not retried", got)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		// Every connection answers once, then reads and stays silent.
		release := make(chan struct{})
		addr, accepted := fakeScheduler(t, func(_ int, conn net.Conn) {
			if answerOne(conn, ok) && wire.ReadFrame(conn, &wire.QueryRequest{}) == nil {
				<-release
			}
		})
		defer close(release)
		var c Client
		defer c.CloseIdleConnections()
		if _, err := c.Query(addr, req, time.Second); err != nil {
			t.Fatal(err)
		}
		_, err := c.Query(addr, req, 50*time.Millisecond)
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("silent scheduler: got %v, want a timeout", err)
		}
		if got := accepted.Load(); got != 1 {
			t.Fatalf("%d connections made: a timeout was retried", got)
		}
		if len(c.idle[addr]) != 0 {
			t.Fatal("a connection with an unanswered request was parked")
		}
	})
}

// TestClientParksAndExpires: one address keeps at most maxIdleConnsPerAddr
// connections, and none past clientIdleTimeout.
func TestClientParksAndExpires(t *testing.T) {
	d := starDaemon(t, "")
	addr := d.QueryAddr()
	var c Client
	defer c.CloseIdleConnections()
	req := &wire.QueryRequest{From: "dev", Metric: "delay"}
	var wg sync.WaitGroup
	for i := 0; i < 3*maxIdleConnsPerAddr; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := c.Query(addr, req, 2*time.Second); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(c.idle[addr]); n == 0 || n > maxIdleConnsPerAddr {
		t.Fatalf("%d connections parked, want 1..%d", n, maxIdleConnsPerAddr)
	}
	waitFor(t, 2*time.Second, func() bool { return int(daemonMetric(t, d, connGauge)) == len(c.idle[addr]) },
		"the daemon to see only the parked connections")

	// Age the parked connections instead of sleeping through the timeout.
	for _, cc := range c.idle[addr] {
		cc.parked = cc.parked.Add(-2 * clientIdleTimeout)
	}
	if cc := c.take(addr, time.Now()); cc != nil {
		t.Fatal("an expired connection was reused")
	}
	if len(c.idle) != 0 {
		t.Fatalf("expired connections still parked: %v", c.idle)
	}
	waitFor(t, 2*time.Second, func() bool { return daemonMetric(t, d, connGauge) == 0 }, "expired connections to be closed")
}

// TestDaemonCloseDropsIdleConnections: Close does not wait out the idle
// deadline of connections that are open and silent.
func TestDaemonCloseDropsIdleConnections(t *testing.T) {
	d := starDaemon(t, "")
	var c Client
	defer c.CloseIdleConnections()
	if _, err := c.Query(d.QueryAddr(), &wire.QueryRequest{From: "dev", Metric: "delay"}, time.Second); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		conn, err := net.Dial("tcp", d.QueryAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	waitFor(t, 2*time.Second, func() bool { return daemonMetric(t, d, connGauge) == 9 }, "every connection to be accepted")
	start := time.Now()
	d.Close()
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with idle connections open", took)
	}
}

// TestQueryConnectionCap: the daemon holds maxQueryConns connections; the
// next one is closed on accept and counted, and a slot freed is a slot
// granted.
func TestQueryConnectionCap(t *testing.T) {
	d := starDaemon(t, "")
	conns := make([]net.Conn, maxQueryConns)
	for i := range conns {
		conn, err := net.Dial("tcp", d.QueryAddr())
		if errors.Is(err, syscall.EMFILE) {
			t.Skipf("descriptor limit reached at connection %d; the cap needs %d", i, 2*maxQueryConns)
		}
		if err != nil {
			t.Fatalf("connection %d: %v", i, err)
		}
		defer conn.Close()
		conns[i] = conn
	}
	waitFor(t, 5*time.Second, func() bool { return daemonMetric(t, d, connGauge) == maxQueryConns }, "every connection to be accepted")
	req := &wire.QueryRequest{From: "dev", Metric: "delay"}
	if _, err := new(Client).Query(d.QueryAddr(), req, time.Second); err == nil {
		t.Fatalf("query answered on connection %d", maxQueryConns+1)
	}
	if got := daemonMetric(t, d, shedConnCap); got != 1 {
		t.Fatalf("%v connections shed at the cap, want 1", got)
	}
	if got := daemonMetric(t, d, connGauge); got != maxQueryConns {
		t.Fatalf("%v connections open, want %d", got, maxQueryConns)
	}
	// The admitted ones are served; closing one admits the next.
	if err := wire.WriteFrame(conns[0], req); err != nil {
		t.Fatal(err)
	}
	if err := wire.ReadFrame(conns[0], &wire.QueryResponse{}); err != nil {
		t.Fatal(err)
	}
	conns[0].Close()
	waitFor(t, 2*time.Second, func() bool { return daemonMetric(t, d, connGauge) == maxQueryConns-1 }, "the closed connection to be forgotten")
	var c Client
	defer c.CloseIdleConnections()
	if _, err := c.Query(d.QueryAddr(), req, time.Second); err != nil {
		t.Fatalf("query after a slot was freed: %v", err)
	}
}

// TestBadFramesDropOnlyTheirConnection: an oversize frame and a garbage one
// each end their own connection, told why, counted by reason, while a
// connection opened before them keeps being served.
func TestBadFramesDropOnlyTheirConnection(t *testing.T) {
	d := starDaemon(t, "")
	req := &wire.QueryRequest{From: "dev", Metric: "delay"}
	var healthy Client
	defer healthy.CloseIdleConnections()
	if _, err := healthy.Query(d.QueryAddr(), req, time.Second); err != nil {
		t.Fatal(err)
	}
	parked := healthy.idle[d.QueryAddr()][0]
	json := []byte(`{"from":"dev","metric":"delay","sorted":true}`)
	for _, c := range []struct {
		name, series string
		frame        []byte
	}{
		// Only the header of the oversize frame is sent: it is refused
		// before its body is waited for.
		{"oversize", shedTooLarge, binary.BigEndian.AppendUint32(nil, wire.MaxRequestFrame+1)},
		{"garbage", shedBadFrame, append(binary.BigEndian.AppendUint32(nil, uint32(len(json))), json...)},
	} {
		conn, err := net.Dial("tcp", d.QueryAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		// A good query first: the frame is dropped mid-stream.
		var resp wire.QueryResponse
		if err := wire.WriteFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadFrame(conn, &resp); err != nil || resp.Error != "" {
			t.Fatalf("%s: query before the bad frame: %+v, %v", c.name, resp, err)
		}
		if _, err := conn.Write(c.frame); err != nil {
			t.Fatal(err)
		}
		if err := wire.ReadFrame(conn, &resp); err != nil || resp.Error == "" {
			t.Fatalf("%s: want an error answer, got %+v, %v", c.name, resp, err)
		}
		if err := wire.ReadFrame(conn, &resp); err != io.EOF {
			t.Fatalf("%s: connection still open: %v", c.name, err)
		}
		if got := daemonMetric(t, d, c.series); got != 1 {
			t.Fatalf("%s: %s = %v, want 1", c.name, c.series, got)
		}
	}
	if _, err := healthy.Query(d.QueryAddr(), req, time.Second); err != nil {
		t.Fatalf("healthy connection after the bad frames: %v", err)
	}
	if healthy.idle[d.QueryAddr()][0] != parked {
		t.Fatal("the healthy client lost its connection")
	}
	waitFor(t, 2*time.Second, func() bool { return daemonMetric(t, d, connGauge) == 1 }, "the dropped connections to be forgotten")
}
