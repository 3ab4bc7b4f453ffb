package model

import (
	"fmt"
	"slices"

	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/ztier"
)

// The paper's configurations (§8.1): two settings of the analytical model
// and three two-tier baselines. Every harness, CLI and facade function that
// runs one of them takes it from here.

// AMTCO returns the analytical model tuned for TCO savings, AMPerf the one
// tuned for performance. The paper does not publish either α; 0.3 and 0.7
// land them in the regimes Figure 7 reports (AM-TCO: deep savings at modest
// slowdown; AM-perf: near-DRAM performance with clear savings). Figure 10
// sweeps α itself.
func AMTCO() *Analytical { return &Analytical{Alpha: 0.3, ModelName: "AM-TCO"} }

// AMPerf: see AMTCO.
func AMPerf() *Analytical { return &Analytical{Alpha: 0.7, ModelName: "AM-perf"} }

// Baseline names one of §8.1's two-tier baselines: percentile-threshold
// tiering between DRAM and one slow tier, which New derives from the
// tier lineup.
type Baseline int

const (
	// HeMemStar is HeMem*: DRAM + NVMM.
	HeMemStar Baseline = iota
	// GSwapStar is GSwap*: DRAM + CT-1, GSwap's lzo/zsmalloc/DRAM tier.
	GSwapStar
	// TMOStar is TMO*: DRAM + the densest tier (CT-2 in the standard mix).
	TMOStar
)

// String returns the baseline's reported name.
func (b Baseline) String() string { return [...]string{"HeMem*", "GSwap*", "TMO*"}[b] }

// New returns b over a lineup — the byte-addressable tiers below DRAM, then
// the compressed tiers, numbered from 1 in that order as mem.NewManager
// numbers them — at hotness percentile pct (the paper's baselines use 25).
// HeMem* targets the first byte-addressable tier, GSwap* the tier
// configured as ztier.CT1() (C7 in the spectrum), TMO* the last tier. A
// lineup that lacks the target has no such baseline: the error names the
// missing tier.
func (b Baseline) New(byteTiers []media.Kind, compressed []ztier.Config, pct float64) (*TwoTier, error) {
	var slow mem.TierID // DRAM until the target is found
	var missing string
	switch b {
	case HeMemStar:
		if len(byteTiers) > 0 {
			slow = 1
		}
		missing = "a byte-addressable tier below DRAM"
	case GSwapStar:
		if i := slices.Index(compressed, ztier.CT1()); i >= 0 {
			slow = mem.TierID(1 + len(byteTiers) + i)
		}
		missing = fmt.Sprintf("CT-1 (%v, lzo/zsmalloc/DRAM)", ztier.CT1())
	default:
		slow, missing = mem.TierID(len(byteTiers)+len(compressed)), "a tier below DRAM"
	}
	if slow == mem.DRAMTier {
		return nil, fmt.Errorf("%v needs %s; the lineup has none", b, missing)
	}
	return &TwoTier{ModelName: b.String(), SlowTier: slow, Pct: pct}, nil
}
