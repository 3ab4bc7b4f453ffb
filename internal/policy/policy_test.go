package policy

import (
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/telemetry"
	"tierscape/internal/ztier"
)

func manager(t *testing.T, regions int64) *mem.Manager {
	t.Helper()
	m, err := mem.NewManager(mem.Config{
		NumPages:        regions * mem.RegionPages,
		Content:         corpus.NewGenerator(corpus.NCI, 1),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func prof(hot ...float64) telemetry.Profile {
	return telemetry.Profile{Hotness: hot, SampleRate: 1000}
}

func recommend(dest ...mem.TierID) model.Recommendation {
	return model.Recommendation{Dest: dest}
}

func TestDropsNoOpMoves(t *testing.T) {
	m := manager(t, 3)
	f := NewFilter(DefaultConfig())
	plan := f.Apply(m, recommend(0, 0, 0), prof(1, 2, 3))
	if len(plan.Moves) != 0 {
		t.Fatalf("all regions already in DRAM; plan has %d moves", len(plan.Moves))
	}
}

func TestOrdersColdestFirst(t *testing.T) {
	m := manager(t, 3)
	f := NewFilter(DefaultConfig())
	plan := f.Apply(m, recommend(2, 2, 2), prof(5, 1, 3))
	if len(plan.Moves) != 3 {
		t.Fatalf("moves = %d, want 3", len(plan.Moves))
	}
	if plan.Moves[0].Region != 1 || plan.Moves[1].Region != 2 || plan.Moves[2].Region != 0 {
		t.Fatalf("order = %v, want coldest first [1 2 0]", plan.Moves)
	}
}

func TestPressureAvoidance(t *testing.T) {
	m := manager(t, 2)
	// Put region 0 into CT1 and fault it hard.
	if _, err := m.MigrateRegion(0, 2); err != nil {
		t.Fatal(err)
	}
	f := NewFilter(Config{PressureFaultRate: 0.5})
	// Prime the filter's fault baseline.
	_ = f.Apply(m, recommend(2, 0), prof(0, 0))
	// Fault every page of region 0 back out (fault rate >> 0.5/page); a
	// page that stayed in DRAM is a hit and faults nothing.
	for p := mem.PageID(0); p < mem.RegionPages; p++ {
		if _, err := m.Access(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.RegionResidency(0)[2]; got != 0 {
		t.Fatalf("%d pages still in CT1 after faulting the region", got)
	}
	// Move the region back so the tier is non-empty for rate math: one
	// fault per resident page is still over 0.5.
	if _, err := m.MigrateRegion(0, 2); err != nil {
		t.Fatal(err)
	}
	plan := f.Apply(m, recommend(2, 2), prof(0, 0))
	if plan.DroppedPressure == 0 {
		t.Fatal("pressured tier accepted new placements")
	}
}

func TestPressureDisabled(t *testing.T) {
	m := manager(t, 2)
	f := NewFilter(Config{PressureFaultRate: 0})
	plan := f.Apply(m, recommend(2, 2), prof(0, 0))
	if len(plan.Moves) != 2 || plan.DroppedPressure != 0 {
		t.Fatalf("pressure filtering should be off: %+v", plan)
	}
}
