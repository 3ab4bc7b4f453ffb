package tco

import (
	"math"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/ztier"
)

func manager(t *testing.T) *mem.Manager {
	t.Helper()
	m, err := mem.NewManager(mem.Config{
		NumPages:        mem.RegionPages * 4,
		Content:         corpus.NewGenerator(corpus.NCI, 1),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllDRAMEqualsMax(t *testing.T) {
	m := manager(t)
	if got, want := Current(m), Max(m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Current = %v, Max = %v; should match with all pages in DRAM", got, want)
	}
}

func TestMigrationReducesTCO(t *testing.T) {
	m := manager(t)
	before := Current(m)
	// Demote half the regions to CT-2 (zstd on Optane).
	if _, err := m.MigrateRegion(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MigrateRegion(1, 3); err != nil {
		t.Fatal(err)
	}
	after := Current(m)
	if after >= before {
		t.Fatalf("TCO did not drop: %v -> %v", before, after)
	}
	s := (Max(m) - after) / Max(m) * 100
	// Half of highly-compressible data moved to a 1/3-cost medium with a
	// high-ratio codec: savings should be large (>40% of the half moved).
	if s < 40 {
		t.Fatalf("savings = %.1f%%, want > 40%% for nci on CT2", s)
	}
	if s > 51 {
		t.Fatalf("savings = %.1f%% exceeds the 50%% of data moved (+pool slack)", s)
	}
}

func TestNVMMCostsOneThird(t *testing.T) {
	m := manager(t)
	if _, err := m.MigrateRegion(0, 1); err != nil { // to NVMM
		t.Fatal(err)
	}
	// 1/4 of data at 1/3 cost: total = 3/4 + 1/4 * 1/3 = 10/12 of max.
	want := Max(m) * (3.0/4.0 + 1.0/4.0/3.0)
	if got := Current(m); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("Current = %v, want %v", got, want)
	}
}

func TestMinUsesBestTier(t *testing.T) {
	m := manager(t)
	fixed := func(mem.TierID) float64 { return 0.5 }
	// Best tier: CT2 on NVMM => 0.5 ratio * 1/3 cost = 1/6 of DRAM.
	want := Max(m) / 6
	if got := Min(m, fixed); math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("Min = %v, want %v", got, want)
	}
	if mts := MTS(m, fixed); math.Abs(mts-(Max(m)-want))/mts > 1e-9 {
		t.Fatalf("MTS = %v", mts)
	}
}

func TestBudgetKnobEndpoints(t *testing.T) {
	m := manager(t)
	fixed := func(mem.TierID) float64 { return 0.5 }
	if got := Budget(m, fixed, 1.0); math.Abs(got-Max(m)) > 1e-9 {
		t.Fatalf("alpha=1 budget = %v, want TCO_max %v", got, Max(m))
	}
	if got := Budget(m, fixed, 0.0); math.Abs(got-Min(m, fixed)) > 1e-9 {
		t.Fatalf("alpha=0 budget = %v, want TCO_min", got)
	}
	// Clamping.
	if Budget(m, fixed, -5) != Budget(m, fixed, 0) || Budget(m, fixed, 7) != Budget(m, fixed, 1) {
		t.Fatal("alpha clamping failed")
	}
	// Monotone in alpha.
	prev := -1.0
	for a := 0.0; a <= 1.0; a += 0.25 {
		b := Budget(m, fixed, a)
		if b < prev {
			t.Fatalf("budget not monotone at alpha=%v", a)
		}
		prev = b
	}
}

func TestMeasuredRatiosFallback(t *testing.T) {
	m := manager(t)
	r := MeasuredRatios(m)
	if got := r(2); got != DefaultRatio {
		t.Fatalf("empty tier ratio = %v, want default %v", got, DefaultRatio)
	}
	// After storing nci pages, CT2's measured ratio must drop below default.
	if _, err := m.MigrateRegion(0, 3); err != nil {
		t.Fatal(err)
	}
	if got := r(3); got >= DefaultRatio {
		t.Fatalf("measured ratio = %v, want < %v for nci", got, DefaultRatio)
	}
}

func TestClampRatio(t *testing.T) {
	if clampRatio(-1) != DefaultRatio || clampRatio(0) != DefaultRatio {
		t.Error("non-positive ratios should fall back")
	}
	if clampRatio(2) != 1 {
		t.Error("ratios above 1 should clamp to 1 (footnote 1)")
	}
	if clampRatio(0.3) != 0.3 {
		t.Error("valid ratio should pass through")
	}
}
