package simtime

import (
	"cmp"
	"slices"
	"testing"
	"time"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*time.Millisecond, func() { order = append(order, 3) })
	e.At(10*time.Millisecond, func() { order = append(order, 1) })
	e.At(20*time.Millisecond, func() { order = append(order, 2) })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired in order %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock at %v, want 30ms", e.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestEngineAfterRelative(t *testing.T) {
	e := NewEngine()
	var at time.Duration
	e.At(time.Second, func() {
		e.After(500*time.Millisecond, func() { at = e.Now() })
	})
	e.RunUntilIdle()
	if at != 1500*time.Millisecond {
		t.Fatalf("nested After fired at %v, want 1.5s", at)
	}
}

func TestEngineAfterNegativeClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-time.Second, func() { fired = true })
	e.RunUntilIdle()
	if !fired {
		t.Fatal("negative After never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v", e.Now())
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(time.Second, func() {})
	e.RunUntilIdle()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(500*time.Millisecond, func() {})
}

func TestAtPlaceInPastPanics(t *testing.T) {
	e := NewEngine()
	p := e.Reserve(500 * time.Millisecond)
	e.At(time.Second, func() {})
	e.RunUntilIdle()
	defer func() {
		if recover() == nil {
			t.Fatal("queueing a place before now did not panic")
		}
	}()
	e.AtPlace(p, func(any) {}, nil)
}

// TestReservedPlaceKeepsItsOrder: a place reserved before a same-time At
// fires before it, though it is queued after.
func TestReservedPlaceKeepsItsOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	p := e.Reserve(time.Second)
	e.At(time.Second, func() { order = append(order, "at") })
	e.AtPlace(p, func(any) { order = append(order, "place") }, nil)
	e.RunUntilIdle()
	if !slices.Equal(order, []string{"place", "at"}) {
		t.Fatalf("fired %v, want the reserved place first", order)
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(time.Second, func() { fired = true })
	ev.Cancel()
	e.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	// Double cancel is a no-op.
	ev.Cancel()
}

func TestEngineRunHorizon(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		e.At(d, func() { fired = append(fired, d) })
	}
	n := e.Run(2 * time.Second)
	if n != 2 {
		t.Fatalf("fired %d events, want 2", n)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock at %v, want 2s", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d, want 2", e.Pending())
	}
	// Run to a horizon past the queue: clock advances to the horizon.
	e.Run(10 * time.Second)
	if e.Now() != 10*time.Second {
		t.Fatalf("clock at %v, want 10s", e.Now())
	}
}

func TestEngineStopAbortsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(time.Duration(i)*time.Second, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run(time.Hour)
	if count != 3 {
		t.Fatalf("ran %d events after Stop, want 3", count)
	}
}

func TestEngineStepSkipsCancelled(t *testing.T) {
	e := NewEngine()
	ev := e.At(time.Second, func() { t.Fatal("cancelled fired") })
	fired := false
	e.At(2*time.Second, func() { fired = true })
	ev.Cancel()
	if !e.Step() {
		t.Fatal("Step returned false with a live event pending")
	}
	if !fired {
		t.Fatal("live event did not fire")
	}
	if e.Step() {
		t.Fatal("Step returned true on empty queue")
	}
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("NextEventTime reported an event on an empty queue")
	}
	e.At(3*time.Second, func() {})
	at, ok := e.NextEventTime()
	if !ok || at != 3*time.Second {
		t.Fatalf("NextEventTime = %v, %v", at, ok)
	}
}

func TestTickerPeriodicFiring(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	tk := e.NewTicker(time.Second, func() { times = append(times, e.Now()) })
	e.Run(3500 * time.Millisecond)
	tk.Stop()
	e.Run(10 * time.Second)
	if len(times) != 3 {
		t.Fatalf("ticker fired %d times, want 3: %v", len(times), times)
	}
	for i, want := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		if times[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestTickerSetPeriod(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	tk := e.NewTicker(time.Second, func() { times = append(times, e.Now()) })
	e.Run(2500 * time.Millisecond) // ticks at 1s, 2s
	tk.SetPeriod(5 * time.Second)  // next tick 2.5+5 = 7.5s
	e.Run(8 * time.Second)
	tk.Stop()
	if len(times) != 3 {
		t.Fatalf("got ticks %v", times)
	}
	if times[2] != 7500*time.Millisecond {
		t.Fatalf("rescheduled tick at %v, want 7.5s", times[2])
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.NewTicker(time.Second, func() {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	e.Run(time.Minute)
	if count != 2 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 2", count)
	}
}

func TestTickerInvalidPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	e.NewTicker(0, func() {})
}

func TestProcessedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.After(time.Duration(i)*time.Millisecond, func() {})
	}
	e.RunUntilIdle()
	if e.Processed != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed)
	}
}

func TestEventNodeRecycling(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.After(time.Millisecond, func() {})
		e.RunUntilIdle()
	}
	if e.Recycled < 99 {
		t.Fatalf("Recycled = %d, want >= 99 (free list not reusing nodes)", e.Recycled)
	}
}

func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine()
	tm := e.At(time.Second, func() { t.Fatal("cancelled event fired") })
	e.At(2*time.Second, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	tm.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after Cancel, want 1 (eager removal)", e.Pending())
	}
	if tm.Pending() {
		t.Fatal("timer still pending after Cancel")
	}
	e.RunUntilIdle()
}

func TestStaleTimerCancelIsSafe(t *testing.T) {
	e := NewEngine()
	fired := 0
	// Fire and recycle the first node...
	stale := e.At(time.Millisecond, func() { fired++ })
	e.RunUntilIdle()
	// ...then schedule a new event, which reuses the node.
	e.At(2*time.Millisecond, func() { fired++ })
	if e.Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", e.Recycled)
	}
	// Cancelling the stale handle must not cancel the node's new occupant.
	stale.Cancel()
	if e.Pending() != 1 {
		t.Fatalf("stale Cancel removed the new event (pending = %d)", e.Pending())
	}
	e.RunUntilIdle()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestCancelMiddleOfQueue(t *testing.T) {
	e := NewEngine()
	var order []int
	timers := make([]Timer, 0, 10)
	for i := 0; i < 10; i++ {
		i := i
		timers = append(timers, e.At(time.Duration(i+1)*time.Second, func() { order = append(order, i) }))
	}
	// Cancel a scattering of events, including the heap top.
	for _, idx := range []int{0, 3, 7, 9} {
		timers[idx].Cancel()
	}
	e.RunUntilIdle()
	want := []int{1, 2, 4, 5, 6, 8}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestTimerPendingLifecycle(t *testing.T) {
	e := NewEngine()
	tm := e.At(time.Second, func() {})
	if !tm.Pending() {
		t.Fatal("fresh timer not pending")
	}
	if tm.Time() != time.Second {
		t.Fatalf("Time() = %v, want 1s", tm.Time())
	}
	e.RunUntilIdle()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Cancelled() {
		t.Fatal("fired timer reports cancelled")
	}
	tm.Cancel() // no-op after firing
	if !tm.Cancelled() {
		t.Fatal("Cancelled() false after explicit Cancel")
	}
}

// BenchmarkEngineScheduleFire measures the steady-state At→fire cycle; with
// the free list it should run allocation-free.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, func() {})
		e.Step()
	}
}

// TestEventQueueMatchesSortedReference drives the heap with random At, After
// and AfterWith calls on a few distinct instants (many ties), places reserved
// now and queued with AtPlace several steps later, cancellations of the head,
// middle and last live events and of handles that already fired or were
// cancelled, and single steps; every firing must be the live event a plain
// (at, seq) sort puts first, a reserved place firing at the seq it took when
// reserved.
func TestEventQueueMatchesSortedReference(t *testing.T) {
	type ref struct {
		at  time.Duration
		seq int
	}
	for seed := int64(1); seed <= 30; seed++ {
		rng := NewRand(seed)
		e := NewEngine()
		var (
			handles []Timer // by seq, live or not
			live    []ref
			fired   []int
			// reserved holds places not yet queued, places their seqs.
			reserved []Place
			places   []int
		)
		record := func(arg any) { fired = append(fired, arg.(int)) }
		schedule := func() {
			seq := len(handles)
			at := e.Now() + time.Duration(rng.Intn(4))*time.Millisecond
			var tm Timer
			switch rng.Intn(3) {
			case 0:
				tm = e.At(at, func() { record(seq) })
			case 1:
				tm = e.After(at-e.Now(), func() { record(seq) })
			default:
				tm = e.AfterWith(at-e.Now(), record, seq)
			}
			handles = append(handles, tm)
			live = append(live, ref{at, seq})
		}
		sortLive := func() {
			slices.SortFunc(live, func(a, b ref) int {
				if a.at != b.at {
					return cmp.Compare(a.at, b.at)
				}
				return cmp.Compare(a.seq, b.seq)
			})
		}
		cancel := func(seq int) {
			handles[seq].Cancel()
			live = slices.DeleteFunc(live, func(r ref) bool { return r.seq == seq })
		}
		reserve := func() {
			places = append(places, len(handles))
			reserved = append(reserved, e.Reserve(time.Duration(rng.Intn(4))*time.Millisecond))
			handles = append(handles, Timer{})
		}
		// queuePlace queues reserved place i, or abandons it if its time has
		// passed: a place that is never queued never fires.
		queuePlace := func(i int) {
			p, seq := reserved[i], places[i]
			reserved, places = slices.Delete(reserved, i, i+1), slices.Delete(places, i, i+1)
			if p.at < e.Now() {
				return
			}
			handles[seq] = e.AtPlace(p, record, seq)
			live = append(live, ref{p.at, seq})
		}
		for step := 0; step < 600; step++ {
			sortLive()
			switch op := rng.Intn(12); {
			case op < 5:
				schedule()
			case op == 10:
				reserve()
			case op == 11:
				if len(reserved) > 0 {
					queuePlace(rng.Intn(len(reserved)))
				}
			case op < 7 && len(live) > 0:
				cancel(live[[]int{0, len(live) / 2, len(live) - 1}[rng.Intn(3)]].seq)
			case op < 8 && len(handles) > 0:
				// Any handle: mostly fired or cancelled ones, a no-op.
				seq := rng.Intn(len(handles))
				if slices.ContainsFunc(live, func(r ref) bool { return r.seq == seq }) {
					cancel(seq)
				} else {
					handles[seq].Cancel()
				}
			default:
				if len(live) == 0 {
					if e.Step() {
						t.Fatalf("seed %d step %d: Step fired on an empty reference", seed, step)
					}
					continue
				}
				n := len(fired)
				e.Step()
				if len(fired) != n+1 || fired[n] != live[0].seq {
					t.Fatalf("seed %d step %d: fired %v, want seq %d next", seed, step, fired[n:], live[0].seq)
				}
				if e.Now() != live[0].at {
					t.Fatalf("seed %d step %d: clock %v, want %v", seed, step, e.Now(), live[0].at)
				}
				live = live[1:]
			}
			if e.Pending() != len(live) {
				t.Fatalf("seed %d step %d: %d pending, reference holds %d", seed, step, e.Pending(), len(live))
			}
		}
		for len(reserved) > 0 {
			queuePlace(0)
		}
		sortLive()
		n := len(fired)
		e.RunUntilIdle()
		for i, r := range live {
			if fired[n+i] != r.seq {
				t.Fatalf("seed %d drain: fired %v, want %v", seed, fired[n:], live)
			}
		}
	}
}

// TestSteadyStateSchedulingAllocatesNothing pins the schedule → fire cycle at
// zero allocations in every form, and a running Ticker with it.
func TestSteadyStateSchedulingAllocatesNothing(t *testing.T) {
	e := NewEngine()
	count := 0
	fn := func() { count++ }
	argFn := func(arg any) { *arg.(*int)++ }
	cycles := map[string]func(){
		"After":     func() { e.After(time.Microsecond, fn); e.Step() },
		"AfterWith": func() { e.AfterWith(time.Microsecond, argFn, &count); e.Step() },
		"Reserve+AtPlace": func() {
			p := e.Reserve(time.Microsecond)
			e.AtPlace(p, argFn, &count)
			e.Step()
		},
	}
	for name, cycle := range cycles {
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("%s → fire allocated %.1f per cycle, want 0", name, allocs)
		}
	}
	tk := e.NewTicker(time.Millisecond, fn)
	before := count
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Errorf("a Ticker tick allocated %.1f, want 0", allocs)
	}
	tk.Stop()
	if count-before != 1001 {
		t.Fatalf("ticker fired %d times over 1001 steps", count-before)
	}
}
