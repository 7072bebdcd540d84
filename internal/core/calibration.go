package core

import (
	"fmt"
	"sort"
	"time"
)

// Calibration maps observed max queue occupancy (packets) to estimated link
// utilization in [0, 1], exploiting the positive correlation between
// utilization and max queue size measured in the paper's Fig 3. The mapping
// is a monotone piecewise-linear curve.
type Calibration struct {
	points []CalPoint // sorted by Queue
}

// CalPoint is one (queue occupancy, utilization) calibration point.
type CalPoint struct {
	Queue int
	Util  float64
}

// NewCalibration builds a calibration from points. Points are sorted by
// queue; utilizations are clamped to [0, 1] and forced monotone
// non-decreasing (a calibration that predicted lower utilization for a
// longer queue would be physically meaningless).
func NewCalibration(points []CalPoint) (*Calibration, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("core: calibration needs at least one point")
	}
	ps := make([]CalPoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Queue < ps[j].Queue })
	prev := 0.0
	for i := range ps {
		if ps[i].Util < 0 {
			ps[i].Util = 0
		}
		if ps[i].Util > 1 {
			ps[i].Util = 1
		}
		if ps[i].Util < prev {
			ps[i].Util = prev
		}
		prev = ps[i].Util
	}
	return &Calibration{points: ps}, nil
}

// DefaultCalibration returns the curve fitted from the Fig 3 reproduction:
// queues stay under ~5 packets below 50% utilization and exceed 30 packets
// approaching saturation. A Calibration is immutable, so every caller shares
// one value: a ranker without its own curve asks once a ranking.
func DefaultCalibration() *Calibration { return defaultCalibration }

var defaultCalibration = &Calibration{points: []CalPoint{
	{Queue: 0, Util: 0.0},
	{Queue: 1, Util: 0.15},
	{Queue: 3, Util: 0.40},
	{Queue: 5, Util: 0.50},
	{Queue: 10, Util: 0.65},
	{Queue: 18, Util: 0.80},
	{Queue: 30, Util: 0.95},
	{Queue: 45, Util: 1.0},
}}

// Utilization returns the estimated utilization for a max queue occupancy.
func (c *Calibration) Utilization(queue int) float64 {
	ps := c.points
	if queue <= ps[0].Queue {
		return ps[0].Util
	}
	last := ps[len(ps)-1]
	if queue >= last.Queue {
		return last.Util
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Queue >= queue })
	lo, hi := ps[i-1], ps[i]
	frac := float64(queue-lo.Queue) / float64(hi.Queue-lo.Queue)
	return lo.Util + frac*(hi.Util-lo.Util)
}

// Points returns a copy of the calibration points.
func (c *Calibration) Points() []CalPoint {
	out := make([]CalPoint, len(c.points))
	copy(out, c.points)
	return out
}

// FitCalibration builds a calibration from paired (utilization, max queue)
// observations, e.g. from a Fig 3 sweep: for each distinct queue value the
// mean observed utilization is used as the curve value.
func FitCalibration(obs []CalPoint) (*Calibration, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: no observations to fit")
	}
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for _, o := range obs {
		sum[o.Queue] += o.Util
		cnt[o.Queue]++
	}
	var pts []CalPoint
	for q, s := range sum {
		pts = append(pts, CalPoint{Queue: q, Util: s / float64(cnt[q])})
	}
	return NewCalibration(pts)
}

// KSample is one paired observation for fitting the queue→latency factor k:
// the summed max queue occupancy along a path and the measured extra delay
// beyond the path's uncongested baseline.
type KSample struct {
	QueueSum   int
	ExtraDelay time.Duration
}

// CalibrateK fits the conversion factor k by least squares through the
// origin: k = Σ(q·d) / Σ(q²). The paper leaves automating k as future work;
// this implements it from (queue, delay) pairs such as Fig 3 measurements.
// Samples with zero queue are ignored (they carry no information about k).
func CalibrateK(samples []KSample) (time.Duration, error) {
	var num, den float64
	for _, s := range samples {
		if s.QueueSum <= 0 {
			continue
		}
		q := float64(s.QueueSum)
		num += q * float64(s.ExtraDelay)
		den += q * q
	}
	if den == 0 {
		return 0, fmt.Errorf("core: no samples with positive queue occupancy")
	}
	k := time.Duration(num / den)
	if k < 0 {
		k = 0
	}
	return k, nil
}
