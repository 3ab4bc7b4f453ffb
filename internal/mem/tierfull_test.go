package mem_test

import (
	"reflect"
	"runtime"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/policy"
	"tierscape/internal/sim"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// tierFullRun runs mdl at GOMAXPROCS procs over a manager with room nowhere but
// DRAM: both compressed tiers clamped to a sliver of pool pages and NVMM
// bounded to two regions. The filter's capacity check is off, so the plan
// keeps sending regions at full tiers and every commit-time fallback runs:
// compressed stores refused and placed back, NVMM moves refused mid-region.
func tierFullRun(t *testing.T, mdl model.Model, procs int) (*sim.Result, *mem.Manager) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	wl := workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1)
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(wl.Content(), 99),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ct := range []mem.TierID{2, 3} {
		if err := m.SetCompressedTierLimit(ct, 24); err != nil {
			t.Fatal(err)
		}
	}
	m.SetByteTierCapacity(1, 2*mem.RegionPages)
	filter := policy.DefaultConfig()
	filter.HonorCapacity = false
	res, err := sim.Run(sim.Config{
		Manager:      m,
		Workload:     wl,
		Model:        mdl,
		FilterConfig: &filter,
		OpsPerWindow: 4000,
		Windows:      5,
		SampleRate:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

// TestTierFullEverywhere: with every tier but DRAM full, the commits that
// place a page whose bytes its prepare already gave back — a store a full
// pool refuses, a region NVMM stops taking halfway — still leave every
// page somewhere, and the Result is the same at GOMAXPROCS 1, 2 and 8 under
// Waterfall and AM-TCO.
func TestTierFullEverywhere(t *testing.T) {
	for _, mdl := range []func() model.Model{
		func() model.Model { return &model.Waterfall{Pct: 75} },
		func() model.Model { return &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"} },
	} {
		t.Run(mdl().Name(), func(t *testing.T) {
			var base *sim.Result
			for _, procs := range []int{1, 2, 8} {
				res, m := tierFullRun(t, mdl(), procs)
				full, rejected := 0, 0
				for _, w := range res.Windows {
					var resident int64
					for _, n := range w.TierPages {
						resident += n
					}
					if resident != m.NumPages() {
						t.Fatalf("GOMAXPROCS %d, window %d: %d pages resident across tiers, want %d", procs, w.Window, resident, m.NumPages())
					}
					full += w.TierFullMoves
					rejected += w.Rejected
				}
				if full == 0 || rejected == 0 {
					t.Fatalf("GOMAXPROCS %d: %d tier-full moves, %d rejected pages; want both > 0", procs, full, rejected)
				}
				if base == nil {
					base = res
				} else if !reflect.DeepEqual(res, base) {
					t.Fatalf("GOMAXPROCS %d: result differs from GOMAXPROCS 1 with every tier full", procs)
				}
			}
		})
	}
}
