// Package simtime implements the discrete-event simulation engine that
// underlies the network simulator. It provides a virtual clock, an event
// queue with deterministic ordering, and cancellable timers.
//
// All simulated components schedule work through an *Engine. Events that are
// scheduled for the same instant fire in the order they were scheduled, which
// makes every simulation run fully deterministic for a given seed.
//
// Steady-state scheduling (packet transmissions, tickers, timers) allocates
// nothing, by three rules. Event nodes are recycled through a per-engine free
// list: firing or cancelling an event returns its node for reuse by a later
// call. The queue is a hand-written binary heap over node pointers, so
// ordering costs no interface calls. And an event is a function of one
// argument: AfterWith schedules a shared func(any) with a pointer argument,
// which needs no closure, and At/After store their func() in the same
// argument slot, which a func value fills without allocating. Timers are
// generation-checked handles, so holding a Timer past its event's lifetime
// stays safe even though the underlying node is reused.
//
// The queue holds only events that exist. A component whose events come due
// in the order it creates them can reserve each one's place in the firing
// order at creation (Reserve) and queue it later (AtPlace), keeping one
// queued event per chain instead of one per member: netsim keeps the packets
// crossing a wire in a FIFO this way and queues only the head's landing. A
// reserved place fires exactly where the event would have fired had it been
// queued at reservation, so the firing order, and every answer, is the same.
package simtime

import (
	"fmt"
	"time"
)

// Place is a position in the firing order: a virtual time and the scheduling
// sequence that breaks ties at it. Reserve hands one out before its event
// exists; AtPlace later queues an event there.
type Place struct {
	at  time.Duration
	seq uint64
}

// Before reports whether an event at p fires before one at q.
func (p Place) Before(q Place) bool {
	return p.at < q.at || p.at == q.at && p.seq < q.seq
}

// event is a scheduled callback: one node of the event heap. Nodes are owned
// by the engine and recycled via its free list; external code only sees them
// through generation-checked Timer handles.
type event struct {
	Place
	// fn(arg) runs when the event fires; At and After store their func()
	// in arg and call it through callFunc.
	fn  func(any)
	arg any
	// index is the heap index, -1 when not queued.
	index int
	// gen increments every time the node is released (fired or cancelled),
	// invalidating any Timer handed out for a previous occupancy.
	gen uint64
	// nextFree links released nodes into the engine's free list.
	nextFree *event
}

// before is the queue order: time, then scheduling sequence.
func (a *event) before(b *event) bool { return a.Place.Before(b.Place) }

// callFunc is the fn of every event scheduled by At or After.
func callFunc(f any) { f.(func())() }

// Timer is a cancellable handle to a scheduled event. The zero value is a
// valid, already-inert timer. Timers are generation-checked: cancelling a
// timer whose event has already fired (and whose node may since have been
// recycled for an unrelated event) is a safe no-op.
type Timer struct {
	eng       *Engine
	ev        *event
	gen       uint64
	at        time.Duration
	cancelled bool
}

// Time returns the virtual time at which the event fires (or fired).
func (t *Timer) Time() time.Duration { return t.at }

// Cancel prevents a pending event from firing, removing it from the queue
// immediately so long-lived tickers and retransmission timers don't strand
// cancelled garbage in the heap. Cancelling an event that has already fired
// (or was already cancelled) is a no-op.
func (t *Timer) Cancel() {
	t.cancelled = true
	if t.eng == nil || t.ev == nil || t.ev.gen != t.gen {
		return
	}
	ev := t.ev
	t.ev = nil
	t.eng.remove(ev.index)
	t.eng.release(ev)
}

// Cancelled reports whether Cancel has been called on this handle.
func (t *Timer) Cancelled() bool { return t.cancelled }

// Pending reports whether the event is still waiting to fire.
func (t *Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all simulated activity runs on the goroutine that calls
// Run/Step. Independent engines share no state, so separate simulations can
// run on separate goroutines (see experiment.Pool).
type Engine struct {
	now     time.Duration
	seq     uint64
	queue   []*event // binary min-heap in (at, seq) order
	stopped bool
	free    *event

	// Processed counts events that have fired, for instrumentation.
	Processed uint64
	// Recycled counts event nodes reused from the free list instead of
	// freshly allocated (allocation diagnostics).
	Recycled uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events waiting in the queue. A reserved
// place counts once AtPlace queues it, not before: the packets behind the
// head of a netsim wire are not events yet.
func (e *Engine) Pending() int { return len(e.queue) }

// release returns a node to the free list, invalidating outstanding Timers.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.fn, ev.arg = nil, nil
	ev.nextFree = e.free
	e.free = ev
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a logic error in a simulated component.
// The returned Timer is a value, not a pointer: callers that discard it pay
// no allocation, and the whole At→fire cycle reuses free-listed nodes.
func (e *Engine) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("simtime: nil event function")
	}
	p := Place{at: t, seq: e.seq}
	e.seq++
	return e.AtPlace(p, callFunc, fn)
}

// After schedules fn to run d after the current time. Negative d is clamped
// to zero.
func (e *Engine) After(d time.Duration, fn func()) Timer {
	return e.At(e.now+max(d, 0), fn)
}

// AfterWith schedules fn(arg) to run d after the current time, negative d
// clamped to zero. It is the closure-free form of After: a hot path binds fn
// once (a top-level function or a method value built at set-up) and passes
// its per-event state as arg, so a pointer arg makes scheduling allocate
// nothing.
func (e *Engine) AfterWith(d time.Duration, fn func(any), arg any) Timer {
	return e.AtPlace(e.Reserve(d), fn, arg)
}

// Reserve returns the place an event scheduled d after the current time
// would take now, negative d clamped to zero, and consumes its sequence
// number as AfterWith does. Nothing is queued until AtPlace: a component
// whose events come due in the order it reserves them (netsim's packets on
// one wire) keeps only the earliest queued and still fires each at the place
// it would have had.
func (e *Engine) Reserve(d time.Duration) Place {
	p := Place{at: e.now + max(d, 0), seq: e.seq}
	e.seq++
	return p
}

// AtPlace schedules fn(arg) at a place from Reserve, on a free-listed node.
// Each place must be queued at most once; one whose time has passed panics,
// as At does.
func (e *Engine) AtPlace(p Place, fn func(any), arg any) Timer {
	if fn == nil {
		panic("simtime: nil event function")
	}
	if p.at < e.now {
		panic(fmt.Sprintf("simtime: scheduling at %v, before now %v", p.at, e.now))
	}
	ev := e.free
	if ev != nil {
		e.free = ev.nextFree
		ev.nextFree = nil
		e.Recycled++
	} else {
		ev = &event{}
	}
	ev.Place, ev.fn, ev.arg = p, fn, arg
	ev.index = len(e.queue)
	e.queue = append(e.queue, ev)
	e.up(ev.index)
	return Timer{eng: e, ev: ev, gen: ev.gen, at: p.at}
}

// up moves the node at heap index j toward the root until its parent is
// before it. Nodes are shifted into the hole rather than swapped, so each
// level costs one slice write.
func (e *Engine) up(j int) {
	q := e.queue
	ev := q[j]
	for j > 0 {
		i := (j - 1) / 2
		parent := q[i]
		if !ev.before(parent) {
			break
		}
		q[j], parent.index = parent, j
		j = i
	}
	q[j], ev.index = ev, j
}

// down moves the node at heap index i toward the leaves until no child is
// before it, and reports whether it moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		child := q[c]
		if !child.before(ev) {
			break
		}
		q[i], child.index = child, i
		i = c
	}
	q[i], ev.index = ev, i
	return i > start
}

// remove takes the node at heap index i out of the queue.
func (e *Engine) remove(i int) *event {
	q := e.queue
	last := len(q) - 1
	ev := q[i]
	if i != last {
		q[i] = q[last]
		q[i].index = i
	}
	q[last] = nil
	e.queue = q[:last]
	if i != last && !e.down(i) {
		e.up(i)
	}
	ev.index = -1
	return ev
}

// fire pops the head event, advances the clock, and runs the callback. The
// caller must ensure the queue is non-empty. The node is released before the
// callback runs so the callback's own scheduling can reuse it.
func (e *Engine) fire() {
	ev := e.remove(0)
	e.now = ev.at
	fn, arg := ev.fn, ev.arg
	e.release(ev)
	e.Processed++
	fn(arg)
}

// Step fires the next pending event and advances the clock to its time.
// It reports whether an event fired.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	e.fire()
	return true
}

// Run executes events until the queue is empty or the clock would pass
// until. Events scheduled exactly at until are executed. It returns the
// number of events fired.
func (e *Engine) Run(until time.Duration) uint64 {
	e.stopped = false
	start := e.Processed
	for !e.stopped && len(e.queue) > 0 {
		// Cancelled events are removed eagerly, so the heap head is always
		// live: one peek plus one pop per fired event, no second traversal.
		if e.queue[0].at > until {
			break
		}
		e.fire()
	}
	if !e.stopped && e.now < until {
		// Advance the clock even if the queue drained early so that
		// successive Run calls observe monotonic time.
		e.now = until
	}
	return e.Processed - start
}

// RunUntilIdle executes events until the queue is empty, leaving the clock
// at the last event's time. Use with care: a self-rescheduling component
// (e.g. a periodic prober) keeps the queue non-empty forever; prefer Run
// with a horizon in that case.
func (e *Engine) RunUntilIdle() uint64 {
	e.stopped = false
	start := e.Processed
	for !e.stopped && e.Step() {
	}
	return e.Processed - start
}

// Stop aborts a Run in progress after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// NextEventTime returns the firing time of the next pending event and true,
// or zero and false when the queue is empty.
func (e *Engine) NextEventTime() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Ticker repeatedly invokes fn every period until cancelled. The first tick
// fires one period from now.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	fn      func()
	next    Timer
	stopped bool
}

// NewTicker schedules fn every period. period must be positive.
func (e *Engine) NewTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	t.next = t.engine.AfterWith(t.period, tick, t)
}

// tick is the event fn of every Ticker: one function for all of them, so a
// tick schedules the next without building a closure.
func tick(arg any) {
	t := arg.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.schedule()
	}
}

// Stop cancels the ticker. It is safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	t.next.Cancel()
}

// SetPeriod changes the tick period for subsequent ticks. The currently
// pending tick is rescheduled from now using the new period.
func (t *Ticker) SetPeriod(period time.Duration) {
	if period <= 0 {
		panic("simtime: ticker period must be positive")
	}
	if t.stopped {
		t.period = period
		return
	}
	t.next.Cancel()
	t.period = period
	t.schedule()
}
