// Package telemetry implements TS-Daemon's access profiling (§7.2): a
// PEBS-style sampler over the application's memory accesses, aggregated at
// 2 MB region granularity with exponential cooling across profile windows.
//
// Intel PEBS reports the virtual address of sampled loads/stores
// (MEM_INST_RETIRED.ALL_LOADS / ALL_STORES) at a configured sampling
// period; the paper uses one sample per 5000 events. This package
// reproduces that estimator over the simulator's access stream: one in
// SampleRate accesses is recorded against the accessed page's region.
//
// Hot pages do not become cold instantaneously (§3.1): at each window
// boundary the accumulated hotness is multiplied by DefaultCooling (0.5)
// and the fresh window's samples are added, so hotness decays gradually
// from hot through warm to cold.
package telemetry

import (
	"fmt"

	"tierscape/internal/mem"
	"tierscape/internal/stats"
)

// DefaultSampleRate matches the paper's 1-in-5000 PEBS period.
const DefaultSampleRate = 5000

// DefaultCooling halves prior hotness each window. It is the one cooling
// factor of both hotness sources: neither 0.1 nor 0.9 placed better than
// 0.5 by more than seed noise (EXPERIMENTS.md, cooling factor).
const DefaultCooling = 0.5

// Config configures a Profiler.
type Config struct {
	// NumRegions is the number of 2 MB regions profiled.
	NumRegions int64
	// SampleRate samples one in SampleRate accesses; 0 (or less) uses
	// DefaultSampleRate.
	SampleRate int
}

// Profiler accumulates sampled access counts per region.
type Profiler struct {
	cfg         Config
	window      []int64   // samples in the current window, per region
	hotness     []float64 // cooled cumulative hotness, per region
	accesses    int64     // accesses seen in current window
	untilSample int64     // accesses left before the next sample; restarts each window
	samples     int64     // samples taken in current window
	windows     int64     // completed windows

	totalSamples int64
}

// NewProfiler returns a profiler for cfg.
func NewProfiler(cfg Config) (*Profiler, error) {
	if cfg.NumRegions <= 0 {
		return nil, fmt.Errorf("telemetry: NumRegions must be positive, got %d", cfg.NumRegions)
	}
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = DefaultSampleRate
	}
	return &Profiler{
		cfg:         cfg,
		window:      make([]int64, cfg.NumRegions),
		hotness:     make([]float64, cfg.NumRegions),
		untilSample: int64(cfg.SampleRate),
	}, nil
}

// Record observes one access to page p, sampling every SampleRate-th
// access of the window.
func (pr *Profiler) Record(p mem.PageID) {
	pr.accesses++
	pr.untilSample--
	if pr.untilSample != 0 {
		return
	}
	pr.untilSample = int64(pr.cfg.SampleRate)
	r := p.Region()
	if int64(r) < int64(len(pr.window)) {
		pr.window[r]++
		pr.samples++
		pr.totalSamples++
	}
}

// Profile is a snapshot of region hotness at a window boundary.
type Profile struct {
	// Hotness is the cooled cumulative hotness per region, in sample
	// units. Multiply by SampleRate for estimated access counts.
	Hotness []float64
	// WindowSamples is the raw sample count of the closing window.
	WindowSamples []int64
	// WindowAccesses is the true access count of the closing window.
	WindowAccesses int64
	// SampleRate echoes the profiler's sampling period.
	SampleRate int
	// Window is the index of the closed window (1-based).
	Window int64
}

// EndWindow closes the current profile window: it folds the window's
// samples into the cooled hotness, returns the resulting profile, and
// resets window state.
func (pr *Profiler) EndWindow() Profile {
	pr.windows++
	p := Profile{
		Hotness:        make([]float64, len(pr.hotness)),
		WindowSamples:  make([]int64, len(pr.window)),
		WindowAccesses: pr.accesses,
		SampleRate:     pr.cfg.SampleRate,
		Window:         pr.windows,
	}
	for i := range pr.hotness {
		pr.hotness[i] = pr.hotness[i]*DefaultCooling + float64(pr.window[i])
		p.Hotness[i] = pr.hotness[i]
		p.WindowSamples[i] = pr.window[i]
		pr.window[i] = 0
	}
	pr.accesses = 0
	pr.untilSample = int64(pr.cfg.SampleRate)
	pr.samples = 0
	return p
}

// TotalSamples returns samples taken over the profiler's lifetime.
func (pr *Profiler) TotalSamples() int64 { return pr.totalSamples }

// OverheadNs models the profiling tax: PEBS sample capture plus the
// daemon's per-window post-processing (Figure 14 shows this is minimal).
func (pr *Profiler) OverheadNs() float64 {
	const perSampleNs = 200 // PEBS record capture + drain
	const perRegionNs = 50  // window aggregation
	return float64(pr.totalSamples)*perSampleNs + float64(pr.windows)*float64(len(pr.hotness))*perRegionNs
}

// EstimatedAccesses converts a profile's hotness for region r into an
// estimated access count (hotness is in sample units).
func (p Profile) EstimatedAccesses(r mem.RegionID) float64 {
	return p.Hotness[r] * float64(p.SampleRate)
}

// Threshold returns the pct-th percentile of region hotness — the
// percentile-based hotness threshold of §8.1 (e.g. 25 for P25).
func (p Profile) Threshold(pct float64) float64 {
	return stats.PercentileOf(p.Hotness, pct)
}
