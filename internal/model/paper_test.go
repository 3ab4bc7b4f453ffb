package model

import (
	"math"
	"strings"
	"testing"

	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/ztier"
)

// TestBaselineTargets: each two-tier baseline's slow tier is derived from
// the lineup — HeMem* the first byte tier, GSwap* the tier configured as
// CT-1, TMO* the last tier — and a lineup without the target has no such
// baseline, with an error naming the missing tier.
func TestBaselineTargets(t *testing.T) {
	nvmm := []media.Kind{media.NVMM}
	c := ztier.Characterization
	const none = mem.TierID(0) // the lineup has no such baseline
	for _, tc := range []struct {
		name       string
		byteTiers  []media.Kind
		compressed []ztier.Config
		want       [3]mem.TierID // HeMem*, GSwap*, TMO*
	}{
		{"standard mix", nvmm, []ztier.Config{ztier.CT1(), ztier.CT2()}, [3]mem.TierID{1, 2, 3}},
		{"spectrum", nil, ztier.SpectrumSet(), [3]mem.TierID{none, 4, 5}},
		{"CXL variant", []media.Kind{media.CXL},
			[]ztier.Config{ztier.CT1(), {Codec: "zstd", Pool: "zsmalloc", Media: media.CXL}}, [3]mem.TierID{1, 2, 3}},
		{"tier file, byte tier and CT-1 in the middle", []media.Kind{media.NVMM, media.CXL},
			[]ztier.Config{c(1), ztier.CT1(), c(12)}, [3]mem.TierID{1, 4, 5}},
		{"tier file, no byte tier, CT-1 last", nil, []ztier.Config{c(1), c(7)}, [3]mem.TierID{none, 2, 2}},
		{"tier file, byte tier, no CT-1", nvmm, []ztier.Config{ztier.CT2()}, [3]mem.TierID{1, none, 2}},
		{"tier file, no byte tier, no CT-1", nil, []ztier.Config{c(1), c(8), c(12)}, [3]mem.TierID{none, none, 3}},
		{"byte tiers only", nvmm, nil, [3]mem.TierID{1, none, 1}},
		{"empty lineup", nil, nil, [3]mem.TierID{none, none, none}},
	} {
		for i, b := range []Baseline{HeMemStar, GSwapStar, TMOStar} {
			missing := map[Baseline]string{HeMemStar: "a byte-addressable tier", GSwapStar: "CT-1", TMOStar: "a tier below DRAM"}[b]
			mdl, err := b.New(tc.byteTiers, tc.compressed, 75)
			if tc.want[i] == none {
				if mdl != nil || err == nil || !strings.Contains(err.Error(), b.String()+" needs "+missing) {
					t.Errorf("%s: %v = %+v, %v; want no model and an error naming the missing %s", tc.name, b, mdl, err, missing)
				}
				continue
			}
			if err != nil || mdl.Name() != b.String() || mdl.SlowTier != tc.want[i] || mdl.Pct != 75 {
				t.Errorf("%s: %v = %+v, %v; want slow tier %d", tc.name, b, mdl, err, tc.want[i])
			}
		}
	}
}

// TestPaperSettings pins the two analytical-model settings, whose names
// every table and event annotation carries.
func TestPaperSettings(t *testing.T) {
	if m := AMTCO(); m.Alpha != 0.3 || m.Name() != "AM-TCO" {
		t.Errorf("AMTCO() = α %v, %q", m.Alpha, m.Name())
	}
	if m := AMPerf(); m.Alpha != 0.7 || m.Name() != "AM-perf" {
		t.Errorf("AMPerf() = α %v, %q", m.Alpha, m.Name())
	}
}

// TestCheckKnobs: alpha outside [0,1] and pct outside [0,100], NaN in
// either, are refused; SetAlpha refuses the alphas CheckKnobs refuses.
func TestCheckKnobs(t *testing.T) {
	nan := math.NaN()
	for _, k := range [][2]float64{{0, 0}, {0.1, 25}, {1, 100}} {
		if err := CheckKnobs(k[0], k[1]); err != nil {
			t.Errorf("alpha %v, pct %v: %v", k[0], k[1], err)
		}
	}
	for _, a := range []float64{-2, -0.01, 1.5, nan} {
		if err := CheckKnobs(a, 25); err == nil || !strings.Contains(err.Error(), "alpha must be in [0,1]") {
			t.Errorf("alpha %v: %v", a, err)
		}
		if err := (&Analytical{Alpha: 0.5}).SetAlpha(a); err == nil {
			t.Errorf("SetAlpha(%v) accepted", a)
		}
	}
	for _, p := range []float64{-1, 100.5, nan} {
		if err := CheckKnobs(0.5, p); err == nil || !strings.Contains(err.Error(), "pct must be in [0,100]") {
			t.Errorf("pct %v: %v", p, err)
		}
	}
}
