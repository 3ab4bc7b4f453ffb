package model

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/telemetry"
	"tierscape/internal/ztier"
)

// driftProfiles returns windows of slowly-drifting hotness: each window
// perturbs `churn` regions and leaves the rest bitwise unchanged.
func driftProfiles(regions, windows, churn int) []telemetry.Profile {
	hot := make([]float64, regions)
	for r := range hot {
		hot[r] = float64(r % 16)
	}
	profs := make([]telemetry.Profile, 0, windows)
	for w := 0; w < windows; w++ {
		if w > 0 {
			for c := 0; c < churn; c++ {
				r := (w*7 + c*13) % regions
				hot[r] = float64((hot[r] + 3) * 1.25)
			}
		}
		profs = append(profs, profileWith(append([]float64(nil), hot...)))
	}
	return profs
}

// fresh returns a copy of a with no buffers, so its next Recommend is a
// first window's. The probe cache is copied, not shared: a probe's cost is
// charged on a cache miss, and both models must see the same misses.
func fresh(a *Analytical) *Analytical {
	c := *a
	c.bufs = nil
	c.ratioCache = maps.Clone(a.ratioCache)
	return &c
}

// reshapedDrift is a window sequence whose region count changes twice:
// drifting windows over 24 regions, then 20, then 24 again. It returns
// each window's manager and profile.
func reshapedDrift(t *testing.T) ([]*mem.Manager, []telemetry.Profile) {
	var ms []*mem.Manager
	var profs []telemetry.Profile
	for _, ph := range []struct{ regions, windows int }{{24, 8}, {20, 5}, {24, 4}} {
		m := standardManager(t, int64(ph.regions))
		for _, p := range driftProfiles(ph.regions, ph.windows, 3) {
			ms = append(ms, m)
			profs = append(profs, p)
		}
	}
	return ms, profs
}

// TestWarmRecommendMatchesCold: a model kept across drifting windows,
// through two changes of region count, must place every region, charge
// every solve and certify every gap exactly as a fresh model solving each
// window — at α 0, 0.3 and 1, blind and compressibility-aware. The last
// schedule steps α 0.3 → 0.7 → 0.1 between windows, the daemon's runtime
// α command. Only buffer capacity may carry from window to window.
func TestWarmRecommendMatchesCold(t *testing.T) {
	ms, profs := reshapedDrift(t)
	for _, schedule := range [][]float64{{0}, {0.3}, {1}, {0.3, 0.7, 0.1}} {
		for _, aware := range []bool{false, true} {
			a := &Analytical{CompressibilityAware: aware}
			for w, prof := range profs {
				if err := a.SetAlpha(schedule[w%len(schedule)]); err != nil {
					t.Fatal(err)
				}
				want := fresh(a).Recommend(ms[w], prof)
				got := a.Recommend(ms[w], prof)
				if !reflect.DeepEqual(got.Dest, want.Dest) {
					t.Fatalf("α %v aware=%v window %d: persistent dest %v != fresh dest %v",
						schedule, aware, w, got.Dest, want.Dest)
				}
				if math.Float64bits(got.SolverNs) != math.Float64bits(want.SolverNs) {
					t.Fatalf("α %v aware=%v window %d: persistent SolverNs %v != fresh %v",
						schedule, aware, w, got.SolverNs, want.SolverNs)
				}
				if g := got.Solve.LPGap; math.Float64bits(g) != math.Float64bits(want.Solve.LPGap) || !(0 <= g && g <= 1) {
					t.Fatalf("α %v aware=%v window %d: persistent LP gap %v, fresh %v (want equal, in [0, 1])",
						schedule, aware, w, g, want.Solve.LPGap)
				}
			}
		}
	}
}

// TestRecommendAllocsPerRun: a model kept across windows allocates a
// window's outputs and little else, even when every region is repriced
// every window, as cooled hotness makes them in the simulator: the option
// arena, the hulls, the increment list and their sorts reuse what the
// previous window left.
func TestRecommendAllocsPerRun(t *testing.T) {
	const regions = 64
	m := standardManager(t, regions)
	// 13 is prime to 64, so a churn of 64 perturbs every region each window.
	profs := driftProfiles(regions, 33, regions)
	am := &Analytical{Alpha: 0.3}
	if rec := am.Recommend(m, profs[0]); slices.Equal(rec.Dest, Keep(m).Dest) {
		t.Fatal("the first window placed every region where it is: the solve walked no increment")
	}
	w := 0
	allocs := testing.AllocsPerRun(64, func() {
		w++
		am.Recommend(m, profs[1+w%(len(profs)-1)])
	})
	if allocs > 8 {
		t.Fatalf("%.1f allocations a window, want at most 8", allocs)
	}
}

// incompressibleManager builds a DRAM + CT-1 manager over pure random
// (incompressible) content, optionally remapping DRAM's unit cost.
func incompressibleManager(t *testing.T, regions int64, dramCost float64) *mem.Manager {
	t.Helper()
	cfg := mem.Config{
		NumPages:        regions * mem.RegionPages,
		Content:         corpus.NewGenerator(corpus.Random, 1),
		CompressedTiers: []ztier.Config{ztier.CT1()},
	}
	if dramCost != 0 {
		cfg.CostOverrides = map[media.Kind]float64{media.DRAM: dramCost}
	}
	m, err := mem.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAwareNonUnitDRAMCostDominatesIncompressible guards the pricing fix:
// with DRAM's CostPerGB remapped to 2.0, an incompressible region's
// compressed option must be priced at the DRAM unit (2.0) — not the old
// hardcoded 1.0, which made the compressed tier look half price and pulled
// incompressible pages into it.
func TestAwareNonUnitDRAMCostDominatesIncompressible(t *testing.T) {
	const regions = 4
	m := incompressibleManager(t, regions, 2.0)
	am := &Analytical{Alpha: 1, CompressibilityAware: true}
	rec := am.Recommend(m, profileWith(make([]float64, regions)))
	for r, d := range rec.Dest {
		if d != mem.DRAMTier {
			t.Fatalf("region %d sent to tier %d; incompressible regions must stay in DRAM", r, d)
		}
	}
	if rec.Solve.Fallbacks != 0 {
		t.Fatalf("α=1 budget admits the all-DRAM min-weight assignment; got fallback: %+v", rec.Solve)
	}
}

// TestInfeasibleRecommendFallsBack guards the Feasible check: an aware
// model at α=0 over incompressible content has a budget priced off the
// default 0.5 global ratio that nothing can meet (every real option weighs
// the DRAM unit), so Recommend must count the window and act on the
// greedy's min-weight answer: an in-range, min-weight placement.
func TestInfeasibleRecommendFallsBack(t *testing.T) {
	const regions = 4
	m := incompressibleManager(t, regions, 0)
	am := &Analytical{Alpha: 0, CompressibilityAware: true}
	rec := am.Recommend(m, profileWith(make([]float64, regions)))
	if rec.Solve.Fallbacks != 1 {
		t.Fatalf("want exactly one fallback, got %+v", rec.Solve)
	}
	for r, d := range rec.Dest {
		if d != mem.DRAMTier {
			t.Fatalf("region %d: the min-weight answer should keep DRAM (weight tie, zero cost), got tier %d", r, d)
		}
	}
}
