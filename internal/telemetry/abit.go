package telemetry

import (
	"fmt"

	"tierscape/internal/mem"
)

// Recorder is the telemetry interface TS-Daemon consumes: observe
// accesses, close profile windows, report the profiling tax. Profiler
// (PEBS-style sampling) and ABitScanner (accessed-bit scanning) both
// implement it.
type Recorder interface {
	// Record observes one access to page p.
	Record(p mem.PageID)
	// EndWindow closes the profile window and returns the hotness profile.
	EndWindow() Profile
	// OverheadNs models the cumulative profiling tax.
	OverheadNs() float64
}

var (
	_ Recorder = (*Profiler)(nil)
	_ Recorder = (*ABitScanner)(nil)
)

// ABitScanner is the telemetry mechanism Google's software-defined far
// memory uses (§10: "periodically scans the ACCESSED bit in page tables
// to identify cold pages"): each page has an accessed bit set by the MMU
// on any touch; at every window boundary the daemon scans and clears all
// of them, counting touched pages per region.
//
// Compared with PEBS sampling, accessed bits are binary — a page touched
// once and a page touched a million times look identical — so region
// hotness is "touched pages", not access counts. The scan tax scales with
// memory size rather than access rate, the opposite trade from PEBS.
type ABitScanner struct {
	numPages int64
	bits     []bool
	hotness  []float64
	accesses int64
	windows  int64
}

// ABitScanNsPerPage is the modeled cost of scanning and clearing one
// page's accessed bit (page-table walk amortized over a batch).
const ABitScanNsPerPage = 10

// NewABitScanner returns an accessed-bit telemetry source for numPages
// pages grouped into the given number of regions.
func NewABitScanner(numPages, numRegions int64) (*ABitScanner, error) {
	if numPages <= 0 || numRegions <= 0 {
		return nil, fmt.Errorf("telemetry: invalid abit geometry (%d pages, %d regions)", numPages, numRegions)
	}
	return &ABitScanner{
		numPages: numPages,
		bits:     make([]bool, numPages),
		hotness:  make([]float64, numRegions),
	}, nil
}

// Record implements Recorder: the MMU sets the accessed bit for free; no
// sampling decision is involved.
func (a *ABitScanner) Record(p mem.PageID) {
	a.accesses++
	if int64(p) < a.numPages {
		a.bits[p] = true
	}
}

// EndWindow implements Recorder: scan + clear all accessed bits, folding
// per-region touched-page counts into the cooled hotness.
func (a *ABitScanner) EndWindow() Profile {
	a.windows++
	p := Profile{
		Hotness:        make([]float64, len(a.hotness)),
		WindowSamples:  make([]int64, len(a.hotness)),
		WindowAccesses: a.accesses,
		SampleRate:     1, // hotness is already in touched-page units
		Window:         a.windows,
	}
	counts := make([]int64, len(a.hotness))
	for i, b := range a.bits {
		if b {
			r := mem.PageID(i).Region()
			if int64(r) < int64(len(counts)) {
				counts[r]++
			}
			a.bits[i] = false
		}
	}
	for i := range a.hotness {
		a.hotness[i] = a.hotness[i]*DefaultCooling + float64(counts[i])
		p.Hotness[i] = a.hotness[i]
		p.WindowSamples[i] = counts[i]
	}
	a.accesses = 0
	return p
}

// OverheadNs implements Recorder: every window scans every page.
func (a *ABitScanner) OverheadNs() float64 {
	return float64(a.windows) * float64(a.numPages) * ABitScanNsPerPage
}
