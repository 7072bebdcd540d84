// Package intsched is a complete Go implementation of "INT Based
// Network-Aware Task Scheduling for Edge Computing" (Shrestha, Cziva,
// Arslan): an edge-computing task scheduler driven by In-band Network
// Telemetry collected through a P4-style programmable dataplane.
//
// The root package holds the repository-level benchmark suite (one
// benchmark per table/figure of the paper plus substrate microbenchmarks);
// the implementation lives under internal/:
//
//   - internal/simtime — discrete-event engine
//   - internal/netsim — packet-level network simulator
//   - internal/dataplane — the INT program (observe + stamp), run by sim and live
//   - internal/telemetry — INT data model and wire codec
//   - internal/transport — TCP-like flows, CBR, ping, reliable control
//   - internal/probe — probing, coverage planning, relays
//   - internal/collector — topology inference and link-state database
//   - internal/core — ranking algorithms and the scheduler service
//   - internal/workload, internal/traffic, internal/edge — the evaluation
//     workloads, background congestion, and task lifecycle
//   - internal/experiment — scenario runner and figure regeneration
//   - internal/live — the real-socket deployment
//
// See README.md for usage, DESIGN.md for architecture, and EXPERIMENTS.md
// for paper-vs-measured results.
package intsched
