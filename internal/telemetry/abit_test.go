package telemetry

import (
	"testing"

	"tierscape/internal/mem"
)

func TestABitCountsTouchedPagesNotAccesses(t *testing.T) {
	a, err := NewABitScanner(2*mem.RegionPages, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Region 0: one page touched a million times. Region 1: 100 distinct
	// pages touched once. Accessed bits must rank region 1 hotter.
	for i := 0; i < 1000000; i++ {
		a.Record(0)
	}
	for p := 0; p < 100; p++ {
		a.Record(mem.PageID(mem.RegionPages + p))
	}
	prof := a.EndWindow()
	if prof.Hotness[0] != 1 {
		t.Fatalf("region 0 hotness = %v, want 1 touched page", prof.Hotness[0])
	}
	if prof.Hotness[1] != 100 {
		t.Fatalf("region 1 hotness = %v, want 100 touched pages", prof.Hotness[1])
	}
}

func TestABitBitsClearEachWindow(t *testing.T) {
	a, _ := NewABitScanner(mem.RegionPages, 1)
	a.Record(5)
	p1 := a.EndWindow()
	if p1.WindowSamples[0] != 1 {
		t.Fatalf("window 1 touched = %d", p1.WindowSamples[0])
	}
	p2 := a.EndWindow()
	if p2.WindowSamples[0] != 0 {
		t.Fatalf("bits not cleared: window 2 touched = %d", p2.WindowSamples[0])
	}
	// Cooling carries hotness across windows.
	if p2.Hotness[0] != DefaultCooling {
		t.Fatalf("cooled hotness = %v, want %v", p2.Hotness[0], DefaultCooling)
	}
}

func TestABitOverheadScalesWithMemorySize(t *testing.T) {
	small, _ := NewABitScanner(1000, 1)
	big, _ := NewABitScanner(100000, 1)
	small.EndWindow()
	big.EndWindow()
	if big.OverheadNs() <= small.OverheadNs() {
		t.Fatal("scan tax must grow with memory size")
	}
	// And it must be access-rate independent.
	small2, _ := NewABitScanner(1000, 1)
	for i := 0; i < 100000; i++ {
		small2.Record(mem.PageID(i % 1000))
	}
	small2.EndWindow()
	if small2.OverheadNs() != small.OverheadNs() {
		t.Fatal("scan tax should not depend on access count")
	}
}

func TestABitValidation(t *testing.T) {
	if _, err := NewABitScanner(0, 1); err == nil {
		t.Error("zero pages accepted")
	}
	if _, err := NewABitScanner(10, 0); err == nil {
		t.Error("zero regions accepted")
	}
}
