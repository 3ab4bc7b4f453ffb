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

func TestMaxMovesBudget(t *testing.T) {
	m := manager(t, 4)
	f := NewFilter(Config{MaxMovesPerWindow: 2})
	plan := f.Apply(m, recommend(1, 1, 1, 1), prof(4, 3, 2, 1))
	if len(plan.Moves) != 2 {
		t.Fatalf("moves = %d, want 2", len(plan.Moves))
	}
	if plan.DroppedBudget != 2 {
		t.Fatalf("DroppedBudget = %d, want 2", plan.DroppedBudget)
	}
	// The two coldest regions (3, 2) make the cut.
	if plan.Moves[0].Region != 3 || plan.Moves[1].Region != 2 {
		t.Fatalf("budget kept %v, want regions 3,2", plan.Moves)
	}
}

func TestCapacityBound(t *testing.T) {
	// NVMM capacity = 1 region: only one region may move there.
	m, err := mem.NewManager(mem.Config{
		NumPages:  3 * mem.RegionPages,
		Content:   corpus.NewGenerator(corpus.NCI, 1),
		ByteTiers: []media.Kind{media.NVMM},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Reach in via Tiers: capacity is set at construction; emulate by
	// setting DRAMCapacity? Instead create with capacity via config knob:
	// the mem package only exposes DRAM capacity, so test capacity
	// filtering on DRAM by moving pages back.
	f := NewFilter(Config{HonorCapacity: true})
	plan := f.Apply(m, recommend(1, 1, 1), prof(1, 2, 3))
	if len(plan.Moves) != 3 {
		t.Fatalf("unbounded NVMM should accept all 3 moves, got %d", len(plan.Moves))
	}
}

func TestDRAMCapacityFiltering(t *testing.T) {
	m, err := mem.NewManager(mem.Config{
		NumPages:          2 * mem.RegionPages,
		Content:           corpus.NewGenerator(corpus.NCI, 1),
		DRAMCapacityPages: mem.RegionPages, // one region of DRAM
		ByteTiers:         []media.Kind{media.NVMM},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both regions start in DRAM (2x capacity); move both to NVMM, then
	// recommend both back: only one fits.
	for r := mem.RegionID(0); r < 2; r++ {
		if _, err := m.MigrateRegion(r, 1); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFilter(Config{HonorCapacity: true})
	plan := f.Apply(m, recommend(0, 0), prof(1, 2))
	if len(plan.Moves) != 1 {
		t.Fatalf("moves = %d, want 1 (DRAM capacity)", len(plan.Moves))
	}
	if plan.DroppedCapacity != 1 {
		t.Fatalf("DroppedCapacity = %d, want 1", plan.DroppedCapacity)
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
