package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 for an empty slice.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return float64(sorted[min(max(rank, 0), len(sorted)-1)])
}

// sortSamples sorts nanosecond samples in place.
func sortSamples(s []uint32) { slices.Sort(s) }

// clampNs stores a duration as a uint32 nanosecond sample (saturating at
// ~4.29 s, far beyond any single op here).
func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	return uint32(min(d, math.MaxUint32))
}

// median returns the median of xs (mean of the two middle values for an
// even count), or 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// liveHeap returns HeapAlloc after a full collection: the bytes still
// referenced.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapDeltaMB is the growth of the live heap over a baseline, in MB.
func heapDeltaMB(now, baseline uint64) float64 {
	return (float64(now) - float64(baseline)) / 1e6
}

// procSample is a reading of the process counters a window is charged with.
type procSample struct {
	cpu        time.Duration // user + system
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcCPU      time.Duration
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcCPU:      time.Duration(gc[0].Value.Float64() * float64(time.Second)),
	}
}

// sub returns the counters spent between two readings.
func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpu:        a.cpu - b.cpu,
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}
