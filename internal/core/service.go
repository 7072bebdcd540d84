package core

import (
	"fmt"

	"intsched/internal/collector"
	"intsched/internal/netsim"
	"intsched/internal/telemetry"
	"intsched/internal/transport"
)

// QueryRequest is the control message an edge device sends to the scheduler
// (Figure 1, step 3/5): "give me candidate edge servers for my task(s)".
type QueryRequest struct {
	// From is the querying edge device.
	From netsim.NodeID
	// QueryID correlates the response at the device.
	QueryID uint64
	// Metric selects the ranking strategy.
	Metric Metric
	// Count limits the returned list (0 returns all candidates). The
	// paper's second query option — an unsorted full list for custom
	// device-side selection — is Count = 0 with Sorted = false.
	Count int
	// Sorted=false requests the paper's option two: the full candidate
	// list with estimates but in arbitrary (ID) order, for devices that
	// implement their own selection.
	Sorted bool
	// DataBytes optionally hints the task's transfer size so size-aware
	// rankers (transfer-time extension) can estimate total completion.
	DataBytes int64
}

// QueryResponse is the scheduler's reply (Figure 1, step 4/6).
type QueryResponse struct {
	QueryID    uint64
	Metric     Metric
	Candidates []Candidate
}

// ServiceConfig configures the scheduler service.
type ServiceConfig struct {
	// QueryResponseSize is the on-wire size of a query response packet.
	// Zero means 256 bytes (a handful of candidate entries).
	QueryResponseSize int
	// ExcludeUnreachable is the fault-recovery policy: drop candidates
	// whose learned-path lookup failed from responses whenever at least
	// one reachable candidate exists, so servers behind evicted links stop
	// receiving tasks as soon as the collector notices the failure. When
	// every candidate is unreachable the full list is returned unchanged —
	// the graceful fallback; stale estimates beat refusing to schedule.
	// Off by default: unreachable candidates are ranked last.
	ExcludeUnreachable bool
}

// Service is the simulated scheduler: it owns the collector's learned
// topology, carries ranking queries from edge devices over the simulated
// network to its query Engine.
//
// RankFor is safe for concurrent callers: the engine reads one immutable
// topology snapshot. (Ranker registration and configuration are setup-time
// only.)
type Service struct {
	stack *transport.Stack
	coll  *collector.Collector
	cfg   ServiceConfig

	engine Engine

	// Demux receives control messages the service does not handle
	// (e.g. task lifecycle messages when the scheduler host also acts as
	// an edge server/device). NewService captures any handler previously
	// installed on the stack, so layering composes automatically.
	Demux func(from netsim.NodeID, payload any)

	// Stats
	QueriesServed uint64
}

// NewService creates the scheduler service on the given host stack, serving
// rankings computed from the collector's learned state. Rankers for the
// strategies in use must be registered with Register before queries of that
// metric arrive.
func NewService(stack *transport.Stack, coll *collector.Collector, cfg ServiceConfig) *Service {
	if cfg.QueryResponseSize <= 0 {
		cfg.QueryResponseSize = 256
	}
	s := &Service{
		stack: stack,
		coll:  coll,
		cfg:   cfg,
	}
	s.engine.ExcludeUnreachable = cfg.ExcludeUnreachable
	s.Demux = stack.ControlHandler
	stack.ControlHandler = s.handleControl
	return s
}

// Register installs a ranker for its metric.
func (s *Service) Register(r Ranker) { s.engine.Register(r) }

// CacheStats reports the rank cache counters.
func (s *Service) CacheStats() RankCacheStats { return s.engine.CacheStats() }

// handleControl demultiplexes scheduler-bound control messages.
func (s *Service) handleControl(from netsim.NodeID, payload any) {
	switch msg := payload.(type) {
	case *QueryRequest:
		s.handleQuery(from, msg)
	case *telemetry.ProbePayload:
		// Relayed INT report from a probe-sink host (coverage-planned
		// probes that terminated away from the scheduler).
		s.coll.HandleProbe(msg)
	default:
		if s.Demux != nil {
			s.Demux(from, payload)
		}
	}
}

func (s *Service) handleQuery(from netsim.NodeID, req *QueryRequest) {
	resp := &QueryResponse{QueryID: req.QueryID, Metric: req.Metric}
	resp.Candidates = s.RankFor(req)
	s.QueriesServed++
	s.stack.SendControl(from, s.responseSize(len(resp.Candidates)), resp)
}

// RankFor computes the ranked candidate list for a query without the
// network round trip. It acquires one topology snapshot for the whole
// computation — candidate selection and ranking see the same epoch. The
// result is the caller's own slice.
func (s *Service) RankFor(req *QueryRequest) []Candidate {
	return s.RankOn(s.coll.Snapshot(), req)
}

// RankOn answers a query against a caller-supplied snapshot (RankFor with
// the snapshot already acquired); nil when no ranker serves the metric. The
// result is a new slice the caller owns: its one allocation is the answer.
func (s *Service) RankOn(topo *collector.Topology, req *QueryRequest) []Candidate {
	ranked, _ := s.engine.Answer(nil, topo, req)
	return ranked
}

// responseSize estimates the wire size of a response carrying n candidates.
func (s *Service) responseSize(n int) int {
	size := s.cfg.QueryResponseSize
	if extra := 24*n + 64 - size; extra > 0 {
		size += extra
	}
	return size
}

// Client is the device-side query helper: it sends a QueryRequest to the
// scheduler and invokes the callback when the response arrives. It owns the
// host's control-message handler.
type Client struct {
	stack     *transport.Stack
	scheduler netsim.NodeID
	nextID    uint64
	pending   map[uint64]func(*QueryResponse)
	// QueryRequestSize is the wire size of a query packet.
	QueryRequestSize int
	// Demux receives control messages that are not query responses
	// (e.g. task lifecycle messages handled by the edge package).
	Demux func(from netsim.NodeID, payload any)
}

// NewClient installs a query client on the device's stack.
func NewClient(stack *transport.Stack, scheduler netsim.NodeID) *Client {
	c := &Client{
		stack:            stack,
		scheduler:        scheduler,
		pending:          make(map[uint64]func(*QueryResponse)),
		QueryRequestSize: 128,
	}
	c.Demux = stack.ControlHandler
	stack.ControlHandler = c.handleControl
	return c
}

// Scheduler returns the scheduler host this client queries.
func (c *Client) Scheduler() netsim.NodeID { return c.scheduler }

func (c *Client) handleControl(from netsim.NodeID, payload any) {
	if resp, ok := payload.(*QueryResponse); ok {
		if cb := c.pending[resp.QueryID]; cb != nil {
			delete(c.pending, resp.QueryID)
			cb(resp)
			return
		}
	}
	if c.Demux != nil {
		c.Demux(from, payload)
	}
}

// QuerySized sends a best-first ranking request for at most count
// candidates (0: all) and invokes cb with the response. dataBytes carries
// the task's data size so size-aware rankers can estimate total transfer
// completion time (0 when unknown).
func (c *Client) QuerySized(metric Metric, count int, dataBytes int64, cb func(*QueryResponse)) {
	c.send(&QueryRequest{
		Metric:    metric,
		Count:     count,
		Sorted:    true,
		DataBytes: dataBytes,
	}, cb)
}

// QueryUnsorted requests the paper's second option: the full candidate
// list with bandwidth/latency estimates in ID order, for devices that
// implement their own selection policy.
func (c *Client) QueryUnsorted(metric Metric, dataBytes int64, cb func(*QueryResponse)) {
	c.send(&QueryRequest{
		Metric:    metric,
		Sorted:    false,
		DataBytes: dataBytes,
	}, cb)
}

// send assigns identity fields and transmits the request.
func (c *Client) send(req *QueryRequest, cb func(*QueryResponse)) {
	c.nextID++
	req.From = c.stack.Host()
	req.QueryID = c.nextID
	c.pending[req.QueryID] = cb
	c.stack.SendControl(c.scheduler, c.QueryRequestSize, req)
}

// String renders a candidate for logs.
func (c Candidate) String() string {
	return fmt.Sprintf("%s(delay=%v bw=%.1fMbps hops=%d)", c.Node, c.Delay, c.BandwidthBps/1e6, c.Hops)
}
