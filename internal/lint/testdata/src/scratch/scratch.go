// Package scratch is the scratchalias fixture: values aliasing the probe
// codec's reused decode/encode scratch — and paths walked into reusable
// scratch by Topology.PathInto or Topology.SlotsInto — must not outlive the
// call, while the
// store-back, in-place-mutation, and synchronous-callee idioms stay clean.
package scratch

import (
	"intsched/internal/collector"
	"intsched/internal/telemetry"
)

type daemon struct {
	decodeScratch telemetry.ProbePayload
	encScratch    []byte
	lastRecords   []telemetry.Record
	history       map[uint64]*telemetry.ProbePayload
}

// GoodEncode is the sanctioned encoder shape: regrow the scratch back into
// the field it came from and hand the buffer to a synchronous callee.
func (d *daemon) GoodEncode(p *telemetry.ProbePayload) {
	encoded, err := telemetry.AppendProbe(d.encScratch[:0], p)
	if err != nil {
		return
	}
	d.encScratch = encoded
	send(encoded)
}

func send(b []byte) { _ = len(b) }

// GoodDecode decodes into the reusable scratch, mutates it in place, and
// passes it to a synchronous same-package consumer.
func (d *daemon) GoodDecode(raw []byte) {
	payload := &d.decodeScratch
	if err := telemetry.UnmarshalProbeInto(payload, raw); err != nil {
		return
	}
	for i := range payload.Stack.Records {
		payload.Stack.Records[i].Queues = payload.Stack.Records[i].Queues[:0]
	}
	consume(payload)
}

func consume(p *telemetry.ProbePayload) { _ = p.Origin }

func (d *daemon) BadRetainRecords(raw []byte) {
	payload := &d.decodeScratch
	if err := telemetry.UnmarshalProbeInto(payload, raw); err != nil {
		return
	}
	d.lastRecords = payload.Stack.Records // want `probe-codec scratch stored in receiver field d\.lastRecords`
}

func (d *daemon) BadHistory(raw []byte) {
	payload := &d.decodeScratch
	if err := telemetry.UnmarshalProbeInto(payload, raw); err != nil {
		return
	}
	d.history[payload.Seq] = payload // want `probe-codec scratch stored in receiver field`
}

func (d *daemon) BadReturn(p *telemetry.ProbePayload) []byte {
	encoded, err := telemetry.AppendProbe(d.encScratch[:0], p)
	if err != nil {
		return nil
	}
	d.encScratch = encoded
	return encoded // want `probe-codec scratch returned to the caller`
}

var lastPayload *telemetry.ProbePayload

func BadGlobal(raw []byte) {
	var p telemetry.ProbePayload
	if err := telemetry.UnmarshalProbeInto(&p, raw); err != nil {
		return
	}
	lastPayload = &p // want `probe-codec scratch stored in package-level variable lastPayload`
}

var deferred []func()

func BadCapture(raw []byte) {
	var p telemetry.ProbePayload
	if err := telemetry.UnmarshalProbeInto(&p, raw); err != nil {
		return
	}
	deferred = append(deferred, func() { consume(&p) }) // want `probe-codec scratch captured by a closure`
}

// walker ranks over index paths the way core's rankers do: PathInto walks
// into reusable scratch that the next walk overwrites.
type walker struct {
	path     []int32
	lastPath []int32
}

// GoodPathStoreBack is the sanctioned shape: the returned path is stored
// back into the scratch field it was walked into, and only derived scalars
// (hop counts, per-hop reads) outlive the call.
func (w *walker) GoodPathStoreBack(topo *collector.Topology, src, dst collector.NodeIdx) int {
	p, code, _ := topo.PathInto(src, dst, w.path)
	w.path = p
	if code != collector.PathOK {
		return -1
	}
	return len(p) - 1
}

// GoodPathLocal keeps the walked path in a local and hands it to a
// synchronous callee, which copies what it keeps.
func GoodPathLocal(topo *collector.Topology, src, dst collector.NodeIdx, scratch []int32) {
	p, _, _ := topo.PathInto(src, dst, scratch)
	walkHops(p)
}

func walkHops(p []int32) { _ = len(p) }

func (w *walker) BadPathRetained(topo *collector.Topology, src, dst collector.NodeIdx) {
	p, _, _ := topo.PathInto(src, dst, w.path)
	w.path = p
	w.lastPath = p // want `probe-codec scratch stored in receiver field w\.lastPath`
}

func BadPathReturned(topo *collector.Topology, src, dst collector.NodeIdx, scratch []int32) []int32 {
	p, _, _ := topo.PathInto(src, dst, scratch)
	return p // want `probe-codec scratch returned to the caller`
}

// slotWalks estimates over hop slots the way core's rankers do: SlotsInto
// into reusable scratch that the next walk overwrites.
type slotWalks struct {
	slots     []collector.Slot
	lastSlots []collector.Slot
}

// GoodSlotsStoreBack stores the walked slots back where they were walked
// into; the hop count and per-slot reads are scalars.
func (w *slotWalks) GoodSlotsStoreBack(topo *collector.Topology, src, dst collector.NodeIdx) int {
	slots, code, _ := topo.SlotsInto(src, dst, w.slots)
	w.slots = slots
	if code != collector.PathOK {
		return -1
	}
	return len(slots)
}

func (w *slotWalks) BadSlotsRetained(topo *collector.Topology, src, dst collector.NodeIdx) {
	slots, _, _ := topo.SlotsInto(src, dst, w.slots)
	w.slots = slots
	w.lastSlots = slots // want `probe-codec scratch stored in receiver field w\.lastSlots`
}

func BadSlotsReturned(topo *collector.Topology, src, dst collector.NodeIdx, scratch []collector.Slot) []collector.Slot {
	slots, _, _ := topo.SlotsInto(src, dst, scratch)
	return slots // want `probe-codec scratch returned to the caller`
}
