package telemetry

import (
	"math"
	"reflect"
	"testing"

	"tierscape/internal/mem"
	"tierscape/internal/stats"
)

func TestSamplingRate(t *testing.T) {
	pr, err := NewProfiler(Config{NumRegions: 4, SampleRate: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		pr.Record(mem.PageID(i % (4 * mem.RegionPages)))
	}
	if got := pr.TotalSamples(); got != 1000 {
		t.Fatalf("samples = %d, want 1000 (1-in-100 of 100k)", got)
	}
}

func TestHotnessProportionalToAccesses(t *testing.T) {
	pr, _ := NewProfiler(Config{NumRegions: 2, SampleRate: 10})
	// Region 0 gets 9x the accesses of region 1.
	for i := 0; i < 90000; i++ {
		pr.Record(0)
	}
	for i := 0; i < 10000; i++ {
		pr.Record(mem.PageID(mem.RegionPages))
	}
	p := pr.EndWindow()
	ratio := p.Hotness[0] / p.Hotness[1]
	if ratio < 7 || ratio > 11 {
		t.Fatalf("hotness ratio = %v, want ~9", ratio)
	}
	// Estimated accesses should approximate the truth.
	est := p.EstimatedAccesses(0)
	if math.Abs(est-90000) > 9000 {
		t.Fatalf("estimated accesses = %v, want ~90000", est)
	}
}

// TestCooling: both hotness sources cool at the one constant. After a
// sampled window, each empty window leaves every region's hotness at
// exactly DefaultCooling times its prior value.
func TestCooling(t *testing.T) {
	pebs, err := NewProfiler(Config{NumRegions: 2, SampleRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	abit, err := NewABitScanner(2*mem.RegionPages, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  Recorder
		want []float64 // first-window hotness: samples or touched pages
	}{
		{"pebs", pebs, []float64{100, 100}},
		{"abit", abit, []float64{100, 10}},
	} {
		for p := 0; p < 100; p++ {
			tc.src.Record(mem.PageID(p))
			tc.src.Record(mem.PageID(mem.RegionPages + p%10))
		}
		prior := tc.src.EndWindow().Hotness
		if !reflect.DeepEqual(prior, tc.want) {
			t.Fatalf("%s: window 1 hotness %v, want %v", tc.name, prior, tc.want)
		}
		for w := 2; w <= 3; w++ {
			got := tc.src.EndWindow().Hotness
			for r := range got {
				if got[r] != DefaultCooling*prior[r] {
					t.Errorf("%s: window %d region %d hotness %v, want %v × %v", tc.name, w, r, got[r], DefaultCooling, prior[r])
				}
			}
			prior = got
		}
	}
}

func TestGradualAgingHotWarmCold(t *testing.T) {
	// A region that stops being accessed must pass through intermediate
	// hotness (warm) before becoming cold — §3.1's aging behaviour.
	pr, _ := NewProfiler(Config{NumRegions: 2, SampleRate: 1})
	for i := 0; i < 1000; i++ {
		pr.Record(0)
		pr.Record(mem.PageID(mem.RegionPages))
	}
	first := pr.EndWindow()
	// Region 1 goes idle; region 0 stays hot.
	var mid, last Profile
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			pr.Record(0)
		}
		if w == 0 {
			mid = pr.EndWindow()
		} else {
			last = pr.EndWindow()
		}
	}
	if !(last.Hotness[1] < mid.Hotness[1] && mid.Hotness[1] < first.Hotness[1]) {
		t.Fatalf("aging not gradual: %v -> %v -> %v", first.Hotness[1], mid.Hotness[1], last.Hotness[1])
	}
	if last.Hotness[1] <= 0 {
		t.Fatal("hotness should decay asymptotically, not hit zero in 3 windows")
	}
}

func TestWindowResets(t *testing.T) {
	pr, _ := NewProfiler(Config{NumRegions: 1, SampleRate: 1})
	pr.Record(0)
	p1 := pr.EndWindow()
	if p1.WindowSamples[0] != 1 || p1.WindowAccesses != 1 {
		t.Fatalf("window 1: %+v", p1)
	}
	p2 := pr.EndWindow()
	if p2.WindowSamples[0] != 0 || p2.WindowAccesses != 0 {
		t.Fatalf("window 2 not reset: %+v", p2)
	}
	if p1.Window != 1 || p2.Window != 2 {
		t.Fatalf("window indices %d, %d; want 1, 2", p1.Window, p2.Window)
	}
}

func TestThresholdPercentile(t *testing.T) {
	pr, _ := NewProfiler(Config{NumRegions: 4, SampleRate: 1})
	// Hotness: region i gets (i+1)*10 samples.
	for r := 0; r < 4; r++ {
		for i := 0; i < (r+1)*10; i++ {
			pr.Record(mem.PageID(r * mem.RegionPages))
		}
	}
	p := pr.EndWindow()
	thr := p.Threshold(25)
	if thr != 10 {
		t.Fatalf("P25 threshold = %v, want 10", thr)
	}
}

func TestOverheadGrowsWithSamples(t *testing.T) {
	pr, _ := NewProfiler(Config{NumRegions: 8, SampleRate: 10})
	base := pr.OverheadNs()
	for i := 0; i < 10000; i++ {
		pr.Record(0)
	}
	pr.EndWindow()
	if pr.OverheadNs() <= base {
		t.Fatal("overhead should grow with samples and windows")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewProfiler(Config{NumRegions: 0}); err == nil {
		t.Error("zero regions should fail")
	}
	// Zero means the default.
	pr, err := NewProfiler(Config{NumRegions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pr.cfg.SampleRate != DefaultSampleRate {
		t.Error("default sample rate not applied")
	}
}

func TestZipfWorkloadSkewDetected(t *testing.T) {
	// End-to-end sanity: a zipfian stream over 16 regions must yield a
	// strongly skewed hotness profile.
	pr, _ := NewProfiler(Config{NumRegions: 16, SampleRate: 50})
	z := stats.NewZipf(stats.NewRNG(1), 16*mem.RegionPages, 0.99, false)
	for i := 0; i < 500000; i++ {
		pr.Record(mem.PageID(z.Next()))
	}
	p := pr.EndWindow()
	if !(p.Hotness[0] > 4*p.Hotness[8]) {
		t.Fatalf("zipf skew not captured: region0=%v region8=%v", p.Hotness[0], p.Hotness[8])
	}
}

// TestProfilerCountdownEquivalence: Record's countdown samples exactly the
// accesses the modulo it replaced sampled — every SampleRate-th access of
// the window, the count restarting at each window boundary — at rates that
// sample everything, divide the window, do not divide it, and exceed it.
func TestProfilerCountdownEquivalence(t *testing.T) {
	const regions = 8
	for _, rate := range []int{1, 2, 50, 5000} {
		pr, err := NewProfiler(Config{NumRegions: regions, SampleRate: rate})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(uint64(rate))
		var totalSamples int64
		// Window lengths on and off the sampling grid, one shorter than a
		// single period of the largest rate, one empty.
		for w, length := range []int{12345, 5000, 0, 4999, 10001, 7} {
			want := make([]int64, regions)
			for i := 1; i <= length; i++ {
				p := mem.PageID(rng.Int63n(regions * mem.RegionPages))
				if i%rate == 0 {
					want[p.Region()]++
					totalSamples++
				}
				pr.Record(p)
			}
			got := pr.EndWindow()
			if got.WindowAccesses != int64(length) {
				t.Fatalf("rate %d window %d: WindowAccesses = %d, want %d", rate, w, got.WindowAccesses, length)
			}
			if !reflect.DeepEqual(got.WindowSamples, want) {
				t.Fatalf("rate %d window %d: samples %v, want %v", rate, w, got.WindowSamples, want)
			}
		}
		if pr.TotalSamples() != totalSamples {
			t.Fatalf("rate %d: TotalSamples = %d, want %d", rate, pr.TotalSamples(), totalSamples)
		}
	}
}
