package sim

import (
	"reflect"
	"strings"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/telemetry"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// standardMix builds the §8.2 tier mix sized for the workload.
func standardMix(t *testing.T, wl workload.Workload) *mem.Manager {
	t.Helper()
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(wl.Content(), 99),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func smallKV(t *testing.T) workload.Workload {
	t.Helper()
	return workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1)
}

func run(t *testing.T, wl workload.Workload, mdl model.Model) *Result {
	t.Helper()
	res, err := Run(Config{
		Manager:      standardMix(t, wl),
		Workload:     wl,
		Model:        mdl,
		OpsPerWindow: 5000,
		Windows:      6,
		SampleRate:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineAllDRAM(t *testing.T) {
	res := run(t, smallKV(t), nil)
	if res.ModelName != "baseline" {
		t.Fatalf("model name = %q", res.ModelName)
	}
	if res.SavingsPct() != 0 {
		t.Fatalf("baseline savings = %v, want 0", res.SavingsPct())
	}
	if res.Faults != 0 {
		t.Fatalf("baseline faults = %d", res.Faults)
	}
	if res.Ops != 30000 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.ThroughputOpsPerSec() <= 0 {
		t.Fatal("throughput must be positive")
	}
}

func TestTieringSavesTCOWithBoundedSlowdown(t *testing.T) {
	wl1 := smallKV(t)
	base := run(t, wl1, nil)
	wl2 := workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1)
	am := run(t, wl2, &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"})

	if am.SavingsPct() <= 5 {
		t.Fatalf("AM-TCO savings = %.1f%%, want > 5%%", am.SavingsPct())
	}
	slow := am.SlowdownPctVs(base)
	if slow < 0 {
		t.Logf("note: tiered run faster than baseline (%.2f%%)", slow)
	}
	if slow > 100 {
		t.Fatalf("slowdown = %.1f%%, implausibly high for AM-TCO on zipf", slow)
	}
}

func TestWaterfallProgressesTiers(t *testing.T) {
	wl := smallKV(t)
	res := run(t, wl, &model.Waterfall{Pct: 25})
	// Pages must waterfall DRAM->NVMM->CT1->CT2: by window 3 or later some
	// window must show pages in the final tier. (The YCSB hot-set shift can
	// promote them back near the end, so check all windows, not the last.)
	reached := false
	minTCO := res.Windows[0].TCO
	for _, w := range res.Windows {
		if w.TierPages[3] > 0 {
			reached = true
		}
		if w.TCO < minTCO {
			minTCO = w.TCO
		}
	}
	if !reached {
		t.Fatalf("no pages ever reached the last tier across %d windows", len(res.Windows))
	}
	// Aging must progressively improve TCO below the first window's level.
	if minTCO >= res.Windows[0].TCO {
		t.Fatalf("waterfall TCO never improved below window 1's %v", res.Windows[0].TCO)
	}
}

func TestAnalyticalBeatsWaterfallOnSavingsAtSimilarPerf(t *testing.T) {
	// The paper's headline: AM-TCO achieves more savings than Waterfall
	// for comparable performance. Check savings ordering at least.
	wf := run(t, workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1),
		&model.Waterfall{Pct: 25})
	am := run(t, workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1),
		&model.Analytical{Alpha: 0.1})
	if am.SavingsPct() <= wf.SavingsPct()*0.8 {
		t.Fatalf("AM savings %.1f%% not competitive with Waterfall %.1f%%",
			am.SavingsPct(), wf.SavingsPct())
	}
}

func TestKnobMonotonicity(t *testing.T) {
	// Lower alpha must save at least as much TCO (Figure 5/10 behaviour).
	savings := map[float64]float64{}
	for _, alpha := range []float64{0.9, 0.1} {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1)
		res := run(t, wl, &model.Analytical{Alpha: alpha})
		savings[alpha] = res.SavingsPct()
	}
	if savings[0.1] < savings[0.9] {
		t.Fatalf("alpha=0.1 savings %.1f%% < alpha=0.9 savings %.1f%%",
			savings[0.1], savings[0.9])
	}
}

func TestFaultsOccurUnderAggressiveTiering(t *testing.T) {
	wl := smallKV(t)
	res := run(t, wl, &model.Analytical{Alpha: 0.0})
	if res.Faults == 0 {
		t.Fatal("alpha=0 placed everything in compressed tiers; faults expected")
	}
	// Faults must appear in per-window records too.
	if res.Windows[len(res.Windows)-1].Faults != res.Faults {
		t.Fatal("window fault accounting inconsistent")
	}
}

func TestDaemonTaxAccounting(t *testing.T) {
	wl := smallKV(t)
	res := run(t, wl, &model.Analytical{Alpha: 0.5})
	if res.DaemonNs <= 0 {
		t.Fatal("daemon work must be positive under a model")
	}
	for _, w := range res.Windows {
		if w.SolverNs <= 0 {
			t.Fatalf("window %d has no solver tax", w.Window)
		}
		if w.DaemonNs < w.SolverNs {
			t.Fatalf("window %d daemon < solver", w.Window)
		}
	}
}

func TestRecommendedVsActualPlacement(t *testing.T) {
	// Figure 9a vs 9b: recommendations and actuals are both recorded.
	wl := smallKV(t)
	res := run(t, wl, &model.Analytical{Alpha: 0.1})
	last := res.Windows[len(res.Windows)-1]
	if len(last.RecommendedPages) != len(last.TierPages) {
		t.Fatal("recommendation/actual tier vectors differ in length")
	}
	var recTotal int64
	for _, v := range last.RecommendedPages {
		recTotal += v
	}
	if recTotal == 0 {
		t.Fatal("no recommendation recorded")
	}
}

func TestConfigValidation(t *testing.T) {
	wl := smallKV(t)
	if _, err := Run(Config{Workload: wl, OpsPerWindow: 1, Windows: 1}); err == nil {
		t.Error("missing manager should fail")
	}
	m := standardMix(t, wl)
	if _, err := Run(Config{Manager: m, Workload: wl}); err == nil {
		t.Error("zero windows should fail")
	}
	// Manager smaller than workload.
	small, err := mem.NewManager(mem.Config{
		NumPages: 8,
		Content:  corpus.NewGenerator(corpus.NCI, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Manager: small, Workload: wl, OpsPerWindow: 1, Windows: 1}); err == nil {
		t.Error("undersized manager should fail")
	}
}

func TestTailLatencyReflectsFaults(t *testing.T) {
	// Aggressive compression should raise p99.9 well above the median.
	wl := smallKV(t)
	res := run(t, wl, &model.Analytical{Alpha: 0.0})
	p50 := res.OpLat.Percentile(50)
	p999 := res.OpLat.Percentile(99.9)
	if p999 <= p50 {
		t.Fatalf("p99.9 (%.0f) should exceed p50 (%.0f) under faults", p999, p50)
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() *Result {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 5)
		return run(t, wl, &model.Waterfall{Pct: 25})
	}
	a, b := mk(), mk()
	if a.AppNs != b.AppNs || a.AvgTCO != b.AvgTCO || a.Faults != b.Faults {
		t.Fatalf("runs not deterministic: %v/%v, %v/%v, %d/%d",
			a.AppNs, b.AppNs, a.AvgTCO, b.AvgTCO, a.Faults, b.Faults)
	}
}

// TestZeroMeansDefault: SampleRate and PrefetchFaultThreshold at 0 run
// exactly as their explicit defaults (1-in-5000 sampling; a prefetcher
// whose threshold no region reaches), and a negative value is an error.
// Each row also names a value that must change the run, so the run is one
// the knob can move.
func TestZeroMeansDefault(t *testing.T) {
	mk := func(set func(*Config)) (*Result, error) {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		cfg := Config{
			Manager:      standardMix(t, wl),
			Workload:     wl,
			Model:        &model.Waterfall{Pct: 50},
			OpsPerWindow: 4000,
			Windows:      5,
			SampleRate:   20,
		}
		set(&cfg)
		return Run(cfg)
	}
	cases := []struct {
		name                  string
		zero, explicit, other func(*Config)
		bad                   []func(*Config)
	}{
		{"SampleRate",
			func(c *Config) { c.SampleRate = 0 },
			func(c *Config) { c.SampleRate = telemetry.DefaultSampleRate },
			func(c *Config) { c.SampleRate = 20 },
			[]func(*Config){func(c *Config) { c.SampleRate = -1 }}},
		{"PrefetchFaultThreshold",
			func(c *Config) { c.PrefetchFaultThreshold = 0 },
			func(c *Config) { c.PrefetchFaultThreshold = 1 << 30 },
			func(c *Config) { c.PrefetchFaultThreshold = 1 },
			[]func(*Config){func(c *Config) { c.PrefetchFaultThreshold = -1 }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var res [3]*Result
			for i, set := range []func(*Config){tc.zero, tc.explicit, tc.other} {
				var err error
				if res[i], err = mk(set); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("%s = 0 differs from its explicit default", tc.name)
			}
			if reflect.DeepEqual(res[0], res[2]) {
				t.Fatalf("%s: a non-default value ran as the default; the run cannot tell them apart", tc.name)
			}
			for i, bad := range tc.bad {
				if _, err := mk(bad); err == nil || !strings.Contains(err.Error(), tc.name) {
					t.Fatalf("bad value %d: want a %s error, got %v", i, tc.name, err)
				}
			}
		})
	}
}

func TestRecommendedPagesPartialFinalRegion(t *testing.T) {
	// recommendedPages must credit the final region with only its actual
	// page count when NumPages is not a multiple of RegionPages.
	cases := []struct {
		name     string
		numPages int64
		dest     []mem.TierID
		want     map[mem.TierID]int64
	}{
		{
			name:     "exact multiple",
			numPages: 2 * mem.RegionPages,
			dest:     []mem.TierID{2, 2},
			want:     map[mem.TierID]int64{2: 2 * mem.RegionPages},
		},
		{
			name:     "partial final region to its own tier",
			numPages: 2*mem.RegionPages + 7,
			dest:     []mem.TierID{0, 1, 3},
			want:     map[mem.TierID]int64{0: mem.RegionPages, 1: mem.RegionPages, 3: 7},
		},
		{
			name:     "single partial region",
			numPages: 5,
			dest:     []mem.TierID{1},
			want:     map[mem.TierID]int64{1: 5},
		},
		{
			name:     "partial final region shares a tier",
			numPages: mem.RegionPages + 1,
			dest:     []mem.TierID{0, 0},
			want:     map[mem.TierID]int64{0: mem.RegionPages + 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := mem.NewManager(mem.Config{
				NumPages:        tc.numPages,
				Content:         corpus.NewGenerator(corpus.NCI, 1),
				ByteTiers:       []media.Kind{media.NVMM},
				CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
			})
			if err != nil {
				t.Fatal(err)
			}
			out := recommendedPages(m, model.Recommendation{Dest: tc.dest})
			if len(out) != len(m.Tiers()) {
				t.Fatalf("len(out) = %d, want %d", len(out), len(m.Tiers()))
			}
			var total int64
			for tier, n := range out {
				total += n
				if want := tc.want[mem.TierID(tier)]; n != want {
					t.Errorf("tier %d: got %d pages, want %d", tier, n, want)
				}
			}
			if total != tc.numPages {
				t.Errorf("pages credited = %d, want NumPages = %d", total, tc.numPages)
			}
		})
	}
}

func TestAccessBitTelemetryDrivesModels(t *testing.T) {
	wl := smallKV(t)
	res, err := Run(Config{
		Manager:            standardMix(t, wl),
		Workload:           wl,
		Model:              &model.Analytical{Alpha: 0.3, ModelName: "AM"},
		OpsPerWindow:       5000,
		Windows:            5,
		AccessBitTelemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingsPct() <= 5 {
		t.Fatalf("accessed-bit telemetry: savings %v%%, want > 5%%", res.SavingsPct())
	}
	// Binary touched-page hotness is flatter than PEBS access counts (a
	// page touched once equals a page touched a million times), so AM sees
	// regions as more uniformly warm and demotes more aggressively than
	// with PEBS — the mechanism's documented limitation. The placement must
	// still be functional: pages get placed, faults stay bounded relative
	// to the access volume.
	if res.Faults > res.Ops {
		t.Fatalf("accessed-bit AM thrashes: %d faults for %d ops", res.Faults, res.Ops)
	}
	pebs, err := Run(Config{
		Manager:      standardMix(t, workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1)),
		Workload:     workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1),
		Model:        &model.Analytical{Alpha: 0.3, ModelName: "AM"},
		OpsPerWindow: 5000,
		Windows:      5,
		SampleRate:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	// PEBS's graded hotness should hold performance at least as well.
	if pebs.AppNs > res.AppNs*1.05 {
		t.Fatalf("PEBS run slower than accessed-bit run: %v vs %v", pebs.AppNs, res.AppNs)
	}
}
