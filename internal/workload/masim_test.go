package workload

import (
	"testing"

	"tierscape/internal/mem"
)

func TestMasimValidation(t *testing.T) {
	cases := []MasimConfig{
		{},
		{Regions: []MasimRegion{{Pages: 10}}},
		{Regions: []MasimRegion{{Pages: 0}}, Phases: []MasimPhase{{Ops: 1, Weights: []float64{1}}}},
		{Regions: []MasimRegion{{Pages: 10}}, Phases: []MasimPhase{{Ops: 0, Weights: []float64{1}}}},
		{Regions: []MasimRegion{{Pages: 10}}, Phases: []MasimPhase{{Ops: 1, Weights: []float64{1, 2}}}},
		{Regions: []MasimRegion{{Pages: 10}}, Phases: []MasimPhase{{Ops: 1, Weights: []float64{-1}}}},
		{Regions: []MasimRegion{{Pages: 10}}, Phases: []MasimPhase{{Ops: 1, Weights: []float64{0}}}},
	}
	for i, cfg := range cases {
		if _, err := NewMasim(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestMasimPhaseWeights(t *testing.T) {
	m, err := NewMasim(MasimConfig{
		Regions: []MasimRegion{{Name: "hot", Pages: 100}, {Name: "cold", Pages: 100}},
		Phases:  []MasimPhase{{Ops: 1 << 40, Weights: []float64{0.9, 0.1}}},
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	var buf []Access
	const n = 20000
	for i := 0; i < n; i++ {
		buf = m.NextOp(buf[:0])
		if buf[0].Page < 100 {
			hot++
		}
	}
	frac := float64(hot) / n
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("hot fraction = %v, want ~0.9", frac)
	}
}

func TestMasimPhaseRotation(t *testing.T) {
	m := DefaultMasim(64, 1000, 2)
	counts := make([]int, 3)
	var buf []Access
	// Phase 0: region A (pages 0..63) dominates.
	for i := 0; i < 999; i++ {
		buf = m.NextOp(buf[:0])
		counts[int(buf[0].Page)/64]++
	}
	if m.phase != 0 {
		t.Fatalf("phase = %d before rotation", m.phase)
	}
	if counts[0] < counts[1] || counts[0] < counts[2] {
		t.Fatalf("phase 0 counts %v; region A should dominate", counts)
	}
	// Advance into phase 1: region B dominates.
	counts = make([]int, 3)
	for i := 0; i < 999; i++ {
		buf = m.NextOp(buf[:0])
		counts[int(buf[0].Page)/64]++
	}
	if m.phase != 1 {
		t.Fatalf("phase = %d after %d ops", m.phase, 2000)
	}
	if counts[1] < counts[0] || counts[1] < counts[2] {
		t.Fatalf("phase 1 counts %v; region B should dominate", counts)
	}
}

func TestMasimInterface(t *testing.T) {
	m := DefaultMasim(32, 100, 3)
	if m.NumPages() != 96 {
		t.Fatalf("NumPages = %d", m.NumPages())
	}
	var buf []Access
	for i := 0; i < 500; i++ {
		buf = m.NextOp(buf[:0])
		if len(buf) != 2 {
			t.Fatalf("AccessesPerOp=2 but got %d accesses", len(buf))
		}
		for _, a := range buf {
			if a.Page < 0 || a.Page >= mem.PageID(96) {
				t.Fatalf("page %d out of range", a.Page)
			}
		}
	}
}

func TestMasimWrites(t *testing.T) {
	m := DefaultMasim(32, 1000, 4)
	writes, total := 0, 0
	var buf []Access
	for i := 0; i < 5000; i++ {
		buf = m.NextOp(buf[:0])
		for _, a := range buf {
			total++
			if a.Write {
				writes++
			}
		}
	}
	frac := float64(writes) / float64(total)
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("write fraction %v, want ~0.1", frac)
	}
}
