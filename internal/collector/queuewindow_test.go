package collector

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// windowProbe watches one portWindow from outside: it counts the new backing
// arrays of the reports array (recuts) and the slides of its live part to
// the front of the same array (compactions: head falls back to zero), the
// reports each one copied, and checks the capacity bound.
type windowProbe struct {
	w           *portWindow
	base        *queueReport
	head        int
	recuts      int
	compactions int
	copied      int
	pushes      int
	perLive     func(live int) int // the capacity bound to hold after every prune
}

// moved reports whether the reports array changed since the last call, and
// counts the change as a recut unless it is the first array; a compaction is
// counted, but is not a new array.
func (p *windowProbe) moved() bool {
	base, last := &p.w.reports.buf[:1][0], p.base
	head, lastHead := p.w.reports.head, p.head
	p.base, p.head = base, head
	switch {
	case last == nil:
		return false
	case last != base:
		p.recuts++
	case head < lastHead:
		p.compactions++
	default:
		return false
	}
	p.copied += len(p.w.reports.live())
	return last != base
}

// pushPrune is the ingest pattern: push onto the port, then prune it.
func (p *windowProbe) pushPrune(t *testing.T, r queueReport, now, window time.Duration) (recut bool) {
	t.Helper()
	p.w.push(r)
	p.pushes++
	recut = p.moved()
	p.w.prune(now, window)
	recut = p.moved() || recut
	if live := len(p.w.reports.live()); cap(p.w.reports.buf) > p.perLive(live) {
		t.Fatalf("push %d: %d slots retained for %d live reports, bound %d",
			p.pushes, cap(p.w.reports.buf), live, p.perLive(live))
	}
	// The deque also shrinks from the back, so only the general bound holds.
	if live := len(p.w.deque.live()); cap(p.w.deque.buf) > 2*live+fifoSlack {
		t.Fatalf("push %d: deque retains %d slots for %d live reports", p.pushes, cap(p.w.deque.buf), live)
	}
	return recut
}

// TestPortWindowMatchesScan holds portWindow's answers equal to the
// windowedQueueMax reference scan over an independently kept plain slice of
// every report pushed, through long-lived windows pruned after every push —
// including duplicate timestamps, out-of-order arrivals (the sorted-insert
// rebuild path) on fresh and on dead-prefixed arrays, and reads taken after
// the clock moved without a prune. At every step the backing arrays stay
// within twice the live reports.
func TestPortWindowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const window = 200 * time.Millisecond
	lateFresh, lateDeadPrefix, lateRecut := 0, 0, 0
	for trial := 0; trial < 20; trial++ {
		w := &portWindow{}
		probe := &windowProbe{w: w, perLive: func(live int) int { return 2*live + fifoSlack }}
		var ref []queueReport // every report pushed, in push order, never pruned
		now := time.Second
		newest := now
		check := func(step int) {
			t.Helper()
			wantBest, wantFound, wantExp := windowedQueueMax(ref, now, window)
			best, found, exp := w.windowMax(now, window)
			if best != wantBest || found != wantFound || exp != wantExp {
				t.Fatalf("trial %d step %d: windowMax=(%d,%v,%v), scan=(%d,%v,%v)",
					trial, step, best, found, exp, wantBest, wantFound, wantExp)
			}
			// The in-window set, in time order with ties in push order.
			var want []queueReport
			for _, r := range ref {
				if r.at >= now-window {
					want = append(want, r)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
			if got := w.inWindow(now - window); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: inWindow=%v, want %v", trial, step, got, want)
			}
		}
		// 25 window turnovers of ~60 reports each.
		for step := 0; now < time.Second+25*window; step++ {
			r := queueReport{at: now, maxQueue: rng.Intn(60)}
			late := rng.Intn(10) == 0 && step > 0
			if late {
				// Out-of-order: land strictly before the newest report,
				// sometimes before the window opened.
				r.at = newest - time.Duration(1+rng.Intn(250))*time.Millisecond
			} else {
				newest = now
			}
			deadPrefix := w.reports.head > 0
			ref = append(ref, r)
			recut := probe.pushPrune(t, r, now, window)
			switch {
			case !late:
			case recut:
				lateRecut++
			case deadPrefix:
				lateDeadPrefix++
			default:
				lateFresh++
			}
			check(step)
			if rng.Intn(4) != 0 {
				now += time.Duration(rng.Intn(9)) * time.Millisecond
				check(step) // a read after the clock moved, before any prune
			}
		}
		if probe.recuts+probe.compactions < 25 || probe.compactions == 0 {
			t.Fatalf("trial %d: %d recuts and %d compactions over 25 window turnovers, want at least one each and some compactions",
				trial, probe.recuts, probe.compactions)
		}
		if probe.copied > 3*probe.pushes {
			t.Fatalf("trial %d: %d reports copied for %d pushed, want at most 3 each", trial, probe.copied, probe.pushes)
		}
		// Fully aged out: the window reports empty and holds nothing.
		now += 2 * window
		if best, found, _ := w.windowMax(now, window); found || best != 0 {
			t.Fatalf("trial %d: aged-out window reported (%d,%v)", trial, best, found)
		}
		w.prune(now, window)
		if n, c := len(w.reports.live())+len(w.deque.live()), cap(w.reports.buf)+cap(w.deque.buf); n != 0 || c > 2*fifoSlack {
			t.Fatalf("trial %d: aged-out window keeps %d reports in %d slots", trial, n, c)
		}
	}
	if lateFresh == 0 || lateDeadPrefix == 0 || lateRecut == 0 {
		t.Fatalf("out-of-order pushes on a fresh array / behind a dead prefix / forcing a recut: %d/%d/%d, want all three exercised",
			lateFresh, lateDeadPrefix, lateRecut)
	}
	// A nil window (port never reported) answers empty.
	var nilw *portWindow
	if best, found, _ := nilw.windowMax(time.Second, window); found || best != 0 {
		t.Fatalf("nil window reported (%d,%v)", best, found)
	}
}

// TestPortWindowSteadyCadenceCapacity: under the ingest pattern at a steady
// report rate — growing from empty, then sliding — a window never retains
// more than live + live/2 + fifoSlack slots (at 16 B a report, the 24 B per
// live report an exact-fit copy of the old 24 B report cost), each report is
// copied at most three times in its life, and once the window has stopped
// growing its array is compacted in place, never replaced.
func TestPortWindowSteadyCadenceCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const window = 200 * time.Millisecond
	w := &portWindow{}
	probe := &windowProbe{w: w, perLive: func(live int) int { return live + live/2 + fifoSlack }}
	now := time.Second
	var grown int // recuts by the end of the second window, when growth has stopped
	for step := 0; step < 50*200; step++ {
		probe.pushPrune(t, queueReport{at: now, maxQueue: rng.Intn(60)}, now, window)
		now += time.Millisecond
		if step == 2*200 {
			grown = probe.recuts
		}
	}
	if live := len(w.reports.live()); live != 201 {
		t.Fatalf("%d live reports, want the window's 201", live)
	}
	if probe.recuts != grown || probe.compactions < 48 {
		t.Fatalf("%d recuts after the window stopped growing (%d while it grew), %d compactions over 48 more windows",
			probe.recuts-grown, grown, probe.compactions)
	}
	if probe.copied > 3*probe.pushes {
		t.Fatalf("%d recuts and %d compactions copied %d reports for %d pushed", probe.recuts, probe.compactions, probe.copied, probe.pushes)
	}
}
