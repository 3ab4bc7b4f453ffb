package mem_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/sim"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// rejectFallbackRun runs mdl at GOMAXPROCS procs over the standard mix
// with mixed content: every fourth page is incompressible, so every span a
// plan sends to a compressed tier has stores refused at commit and pages
// placed back, beside pages that land. It returns the run's Result and
// what the pools hold beyond their counts: the tiers' footprints after
// every third page faults back in, then what a compaction pass moves —
// both follow from which objects share a zspage, so from the order every
// store of the run landed in.
func rejectFallbackRun(t *testing.T, mdl model.Model, procs int) (*sim.Result, *mem.Manager, string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	wl := workload.Memcached(workload.DriverYCSB, 1024, 8*mem.RegionPages, 1)
	m, err := mem.NewManager(mem.Config{
		NumPages:        wl.NumPages(),
		Content:         corpus.NewGenerator(corpus.Mixed, 99),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Manager:      m,
		Workload:     wl,
		Model:        mdl,
		OpsPerWindow: 4000,
		Windows:      5,
		SampleRate:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := mem.PageID(0); p < mem.PageID(m.NumPages()); p += 3 {
		if _, err := m.Access(p, false); err != nil {
			t.Fatal(err)
		}
	}
	return res, m, fmt.Sprint(m.TierFootprintBytes(), m.Compact())
}

// TestRejectFallbackEverywhere: with an incompressible page in every four,
// the commits that place a page a compressed tier refuses — back in its
// byte-addressable source, or in DRAM when it came out of a compressed
// tier — still leave every page somewhere, and the Result and the pools'
// layouts are the same at GOMAXPROCS 1, 2 and 8 under Waterfall and
// AM-TCO.
func TestRejectFallbackEverywhere(t *testing.T) {
	for _, mdl := range []func() model.Model{
		func() model.Model { return &model.Waterfall{Pct: 75} },
		func() model.Model { return &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"} },
	} {
		t.Run(mdl().Name(), func(t *testing.T) {
			var base *sim.Result
			var baseLayout string
			for _, procs := range []int{1, 2, 8} {
				res, m, layout := rejectFallbackRun(t, mdl(), procs)
				moved, rejected := 0, 0
				for _, w := range res.Windows {
					var resident int64
					for _, n := range w.TierPages {
						resident += n
					}
					if resident != m.NumPages() {
						t.Fatalf("GOMAXPROCS %d, window %d: %d pages resident across tiers, want %d", procs, w.Window, resident, m.NumPages())
					}
					moved += w.Moves
					rejected += w.Rejected
				}
				if moved == 0 || rejected == 0 {
					t.Fatalf("GOMAXPROCS %d: %d pages moved, %d rejected; want both > 0", procs, moved, rejected)
				}
				if base == nil {
					base, baseLayout = res, layout
				} else if !reflect.DeepEqual(res, base) {
					t.Fatalf("GOMAXPROCS %d: result differs from GOMAXPROCS 1 with pages rejected everywhere", procs)
				} else if layout != baseLayout {
					t.Fatalf("GOMAXPROCS %d: pool layout %s, GOMAXPROCS 1's %s", procs, layout, baseLayout)
				}
			}
		})
	}
}
