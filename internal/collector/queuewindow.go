package collector

import (
	"sort"
	"time"
)

// reportFIFO is a queue of reports, ascending by time, in one backing array:
// buf[head:] is live and buf[:head] is the dead prefix left by expiry.
// Expiry only advances head. A push onto a full array slides the live part
// to the front of the same array when the dead prefix is at least half of it
// (compact) and copies it into a larger array otherwise (recut); expiry
// recuts into a smaller one once the array has grown past twice the live
// part. Either way a report is copied a bounded number of times in its life
// however many reports share the array, and a window that has stopped
// growing allocates nothing.
type reportFIFO struct {
	buf  []queueReport
	head int
}

// fifoSlack is the constant term of the capacity rule: the one slot that
// lets a recut of a queue of zero or one reports make room for the push
// that forced it.
const fifoSlack = 1

func (q *reportFIFO) live() []queueReport { return q.buf[q.head:] }

// recut moves the live reports to the front of a new backing array with room
// for half as many again. At least a quarter of the previous recut's live
// count has been pushed or expired since, which is what amortises the copy.
func (q *reportFIFO) recut() {
	live := q.live()
	q.buf, q.head = append(make([]queueReport, 0, len(live)+len(live)/2+fifoSlack), live...), 0
}

func (q *reportFIFO) pushBack(r queueReport) {
	if len(q.buf) == cap(q.buf) {
		if live := len(q.buf) - q.head; q.head > 0 && 2*q.head >= live {
			// compact: the freed room is at least half the live count,
			// which is what amortises the copy.
			q.buf, q.head = q.buf[:copy(q.buf, q.buf[q.head:])], 0
		} else {
			q.recut()
		}
	}
	q.buf = append(q.buf, r)
}

// expire drops the reports older than cutoff and restores the capacity
// bound: cap(buf) <= 2*len(live())+fifoSlack.
func (q *reportFIFO) expire(cutoff time.Duration) {
	for q.head < len(q.buf) && q.buf[q.head].at < cutoff {
		q.head++
	}
	if cap(q.buf) > 2*len(q.live())+fifoSlack {
		q.recut()
	}
}

// from returns the live reports at or after cutoff.
func (q *reportFIFO) from(cutoff time.Duration) []queueReport {
	live := q.live()
	return live[sort.Search(len(live), func(k int) bool { return live[k].at >= cutoff }):]
}

// portWindow holds one (device, port)'s queue reports together with a
// monotonic deque over them, so the windowed maximum is read off the deque
// front instead of rescanning every in-window report on each snapshot rebuild.
//
// Invariants (maintained under the collector's lock):
//   - reports is ascending by report time (probe clocks are monotone; a
//     defensively handled out-of-order push re-sorts and rebuilds);
//   - deque is a subsequence of reports, ascending by time and strictly
//     descending by maxQueue, and always contains the newest report: any
//     report dominated by a later, larger-or-equal one can never be the
//     window maximum again and is dropped at push time.
//
// Reads (windowMax, inWindow) locate the window boundary by binary search and
// mutate nothing; reports leave only through prune, which ingest runs on the
// port it pushed to and aging runs on the ports of every device with a flush
// that left the window (ageQueuesLocked). windowedQueueMax
// (state.go) remains the reference definition of the cutoff/boundary rule;
// TestPortWindowMatchesScan holds the two equal.
type portWindow struct {
	// slotPair is where this port's maximum is held in the live slots: the
	// slots of the edge it is the egress port of (noSlots for any other
	// port); stored is the heldMax last written there.
	slotPair
	stored  int32
	reports reportFIFO
	deque   reportFIFO
}

// push appends a new report and maintains the deque invariant.
func (w *portWindow) push(r queueReport) {
	if live := w.reports.live(); len(live) > 0 && r.at < live[len(live)-1].at {
		// Out-of-order report (defensive: clocks are monotone in both sim
		// and live ingest). Insert at the sorted position and rebuild.
		i := sort.Search(len(live), func(k int) bool { return live[k].at > r.at })
		w.reports.pushBack(queueReport{})
		live = w.reports.live()
		copy(live[i+1:], live[i:])
		live[i] = r
		w.deque = reportFIFO{buf: w.deque.buf[:0]}
		for _, r := range live {
			w.pushDeque(r)
		}
		return
	}
	w.reports.pushBack(r)
	w.pushDeque(r)
}

// pushDeque appends r to the deque after popping the reports it dominates.
func (w *portWindow) pushDeque(r queueReport) {
	d := &w.deque
	for len(d.buf) > d.head && d.buf[len(d.buf)-1].maxQueue <= r.maxQueue {
		d.buf = d.buf[:len(d.buf)-1]
	}
	d.pushBack(r)
}

// inWindow returns the reports in the window that opened at cutoff.
func (w *portWindow) inWindow(cutoff time.Duration) []queueReport {
	return w.reports.from(cutoff)
}

// windowMax returns the same triple as windowedQueueMax over the window
// ending at now: the in-window maximum occupancy, whether any in-window
// report exists, and when the earliest in-window report ages out
// (neverExpires if none).
func (w *portWindow) windowMax(now, window time.Duration) (best int, found bool, expireAt time.Duration) {
	if w == nil {
		return 0, false, neverExpires
	}
	in := w.inWindow(now - window)
	if len(in) == 0 {
		return 0, false, neverExpires
	}
	// The newest report is always in the deque and is in-window here, so
	// the deque has an in-window front. The scan floors at zero; mirror it.
	if q := w.deque.from(now - window)[0].maxQueue; q > 0 {
		best = q
	}
	return best, true, in[0].at + window
}

// heldMax returns the maximum occupancy of the reports held (floored at zero,
// as the scan is), or -1 if none is: the windowed maximum right after a
// prune, when every report held is in the window.
func (w *portWindow) heldMax() int32 {
	if len(w.reports.live()) == 0 {
		return -1
	}
	return int32(max(w.deque.live()[0].maxQueue, 0))
}

// prune drops reports that aged out of the window ending at now.
func (w *portWindow) prune(now, window time.Duration) {
	w.reports.expire(now - window)
	w.deque.expire(now - window)
}
