package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// meter brackets a timed region: wall clock, process CPU (getrusage
// user+sys) and the allocator's cumulative counters.
type meter struct {
	t0  time.Time
	cpu float64
	ms  runtime.MemStats
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is KB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// startMeter reads the slow counters first and the clock last, so the
// wall region excludes the stop-the-world of ReadMemStats.
func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.cpu = cpuSeconds()
	m.t0 = time.Now()
	return m
}

// usage is what a meter measured between start and stop.
type usage struct {
	wallS, cpuS         float64
	allocBytes, mallocs uint64
}

func (m *meter) stop() usage {
	wall := time.Since(m.t0)
	cpu := cpuSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wallS:      wall.Seconds(),
		cpuS:       cpu - m.cpu,
		allocBytes: ms.TotalAlloc - m.ms.TotalAlloc,
		mallocs:    ms.Mallocs - m.ms.Mallocs,
	}
}

// retainedHeapMB is the live heap after a full collection; the caller
// keeps whatever it wants counted reachable across the call.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median averages the two middle values for even counts, like Python's
// statistics.median, so run-level medians match what the driver computes.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 by the exclusive method of Python's
// statistics.quantiles(values, n=4) — the driver's definition of spread.
// With fewer than two values both are the single value.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is (Q3−Q1)/median, the share the driver bounds.
func spread(vals []float64) float64 {
	med := median(vals)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(med)
}
