package model

import (
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/telemetry"
	"tierscape/internal/ztier"
)

// standardManager builds the paper's standard mix: DRAM, NVMM, CT-1, CT-2.
func standardManager(t testing.TB, regions int64) *mem.Manager {
	t.Helper()
	m, err := mem.NewManager(mem.Config{
		NumPages:        regions * mem.RegionPages,
		Content:         corpus.NewGenerator(corpus.Dickens, 1),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// profileWith returns a profile where region r has hotness hot[r].
func profileWith(hot []float64) telemetry.Profile {
	return telemetry.Profile{
		Hotness:       hot,
		WindowSamples: make([]int64, len(hot)),
		SampleRate:    1000,
	}
}

func TestTwoTierSplitsAtPercentile(t *testing.T) {
	m := standardManager(t, 8)
	prof := profileWith([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	tt := &TwoTier{ModelName: "HeMem*", SlowTier: 1, Pct: 25}
	rec := tt.Recommend(m, prof)
	// P25 of 0..7 is 1 (nearest rank): regions with hotness > 1 go DRAM.
	wantDRAM := map[int]bool{2: true, 3: true, 4: true, 5: true, 6: true, 7: true}
	for r, d := range rec.Dest {
		if wantDRAM[r] && d != mem.DRAMTier {
			t.Errorf("region %d: dest %d, want DRAM", r, d)
		}
		if !wantDRAM[r] && d != 1 {
			t.Errorf("region %d: dest %d, want NVMM (1)", r, d)
		}
	}
}

func TestTwoTierNames(t *testing.T) {
	if HeMemStar.String() != "HeMem*" || GSwapStar.String() != "GSwap*" || TMOStar.String() != "TMO*" {
		t.Fatal("baseline names wrong")
	}
	if (&TwoTier{SlowTier: 1, Pct: 25}).Name() == "" {
		t.Fatal("anonymous TwoTier needs a synthesized name")
	}
}

func TestWaterfallDemotesOneStep(t *testing.T) {
	m := standardManager(t, 4)
	cold := profileWith([]float64{0, 0, 0, 0})
	wf := &Waterfall{Pct: 25}

	// Window 1: everything cold in DRAM -> all demote to tier 1.
	rec := wf.Recommend(m, cold)
	for r, d := range rec.Dest {
		if d != 1 {
			t.Fatalf("window 1 region %d: dest %d, want 1", r, d)
		}
	}
	// Apply and re-run: cold regions in tier 1 waterfall to tier 2.
	for r := mem.RegionID(0); r < 4; r++ {
		if _, err := m.MigrateRegion(r, 1); err != nil {
			t.Fatal(err)
		}
	}
	rec = wf.Recommend(m, cold)
	for r, d := range rec.Dest {
		if d != 2 {
			t.Fatalf("window 2 region %d: dest %d, want 2", r, d)
		}
	}
}

func TestWaterfallLastTierHolds(t *testing.T) {
	m := standardManager(t, 2)
	for r := mem.RegionID(0); r < 2; r++ {
		if _, err := m.MigrateRegion(r, 3); err != nil {
			t.Fatal(err)
		}
	}
	wf := &Waterfall{Pct: 25}
	rec := wf.Recommend(m, profileWith([]float64{0, 0}))
	for r, d := range rec.Dest {
		if d != 3 {
			t.Fatalf("region %d: dest %d, want last tier 3", r, d)
		}
	}
}

func TestWaterfallPromotesHot(t *testing.T) {
	m := standardManager(t, 2)
	if _, err := m.MigrateRegion(0, 3); err != nil {
		t.Fatal(err)
	}
	wf := &Waterfall{Pct: 25}
	rec := wf.Recommend(m, profileWith([]float64{100, 0}))
	if rec.Dest[0] != mem.DRAMTier {
		t.Fatalf("hot region in CT2: dest %d, want DRAM", rec.Dest[0])
	}
}

func TestAnalyticalAlphaOneKeepsDRAM(t *testing.T) {
	m := standardManager(t, 4)
	am := &Analytical{Alpha: 1.0}
	rec := am.Recommend(m, profileWith([]float64{5, 5, 5, 5}))
	for r, d := range rec.Dest {
		if d != mem.DRAMTier {
			t.Fatalf("alpha=1 region %d: dest %d, want DRAM", r, d)
		}
	}
}

func TestAnalyticalAlphaZeroSavesMaximally(t *testing.T) {
	m := standardManager(t, 4)
	am := &Analytical{Alpha: 0.0}
	rec := am.Recommend(m, profileWith([]float64{100, 1, 1, 1}))
	// With a budget of TCO_min every region must leave DRAM for the
	// cheapest tier.
	for r, d := range rec.Dest {
		if d == mem.DRAMTier {
			t.Fatalf("alpha=0 region %d still in DRAM", r)
		}
	}
}

func TestAnalyticalPlacesColdInCheapHotInFast(t *testing.T) {
	m := standardManager(t, 8)
	// One very hot region, rest cold; mid alpha.
	hot := []float64{1000, 0, 0, 0, 0, 0, 0, 0}
	am := &Analytical{Alpha: 0.3}
	rec := am.Recommend(m, profileWith(hot))
	if rec.Dest[0] != mem.DRAMTier {
		t.Fatalf("hot region: dest %d, want DRAM", rec.Dest[0])
	}
	coldCheap := 0
	for r := 1; r < 8; r++ {
		if rec.Dest[r] != mem.DRAMTier {
			coldCheap++
		}
	}
	if coldCheap < 6 {
		t.Fatalf("only %d/7 cold regions left DRAM at alpha=0.3", coldCheap)
	}
}

func TestAnalyticalMonotoneInAlpha(t *testing.T) {
	m := standardManager(t, 16)
	hot := make([]float64, 16)
	for i := range hot {
		hot[i] = float64(i * i)
	}
	prof := profileWith(hot)
	prev := -1
	for _, alpha := range []float64{0.9, 0.5, 0.1} {
		am := &Analytical{Alpha: alpha}
		rec := am.Recommend(m, prof)
		inDRAM := 0
		for _, d := range rec.Dest {
			if d == mem.DRAMTier {
				inDRAM++
			}
		}
		if prev >= 0 && inDRAM > prev {
			t.Fatalf("alpha=%v keeps more regions in DRAM (%d) than looser knob (%d)", alpha, inDRAM, prev)
		}
		prev = inDRAM
	}
}

func TestAnalyticalSolverTax(t *testing.T) {
	m := standardManager(t, 4)
	prof := profileWith([]float64{1, 2, 3, 4})
	if rec := (&Analytical{Alpha: 0.5}).Recommend(m, prof); rec.SolverNs <= 0 {
		t.Fatal("solver tax must be positive")
	}
}

func TestAnalyticalName(t *testing.T) {
	if (&Analytical{Alpha: 0.1, ModelName: "AM-TCO"}).Name() != "AM-TCO" {
		t.Fatal("ModelName override broken")
	}
	if (&Analytical{Alpha: 0.25}).Name() == "" {
		t.Fatal("synthesized name empty")
	}
}

func TestKeepRecommendation(t *testing.T) {
	m := standardManager(t, 3)
	if _, err := m.MigrateRegion(1, 2); err != nil {
		t.Fatal(err)
	}
	rec := Keep(m)
	if rec.Dest[0] != mem.DRAMTier || rec.Dest[1] != 2 || rec.Dest[2] != mem.DRAMTier {
		t.Fatalf("Keep = %v", rec.Dest)
	}
}
