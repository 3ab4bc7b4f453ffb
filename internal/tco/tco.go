// Package tco implements the memory total-cost-of-ownership accounting of
// the paper's Eq. 8/10 and the maximum-TCO-savings bound of Eq. 1:
//
//	TCO  = P_TD·USD_TD + Σ P_TNx·USD_TNx + Σ P_CTy·C_CTy·USD_CTy
//	MTS  = TCO_max − TCO_min
//
// Costs are in relative dollar units where storing one GB uncompressed in
// DRAM costs 1.0 (so "TCO savings of 30%" reads directly as a fraction of
// the all-DRAM cost).
package tco

import (
	"tierscape/internal/mem"
)

// bytesPerGB converts footprints to GB for cost math.
const bytesPerGB = 1 << 30

// Current returns the system's memory TCO right now: each tier's physical
// footprint (compressed tiers already reflect C_CT via their pool size)
// times its medium's unit cost.
func Current(m *mem.Manager) float64 {
	tiers := m.Tiers()
	fp := m.TierFootprintBytes()
	total := 0.0
	for i, t := range tiers {
		total += float64(fp[i]) / bytesPerGB * t.CostPerGB
	}
	return total
}

// Max returns TCO_max: the cost with every page resident in DRAM.
func Max(m *mem.Manager) float64 {
	dram := m.Tiers()[mem.DRAMTier]
	return float64(m.NumPages()) * mem.PageSize / bytesPerGB * dram.CostPerGB
}

// Min returns TCO_min: the cost with every page placed in the cheapest
// tier. For compressed tiers the per-byte cost is scaled by ratioOf(tier),
// the (measured or assumed) compression ratio C_CT ∈ (0,1].
func Min(m *mem.Manager, ratioOf func(mem.TierID) float64) float64 {
	bytes := float64(m.NumPages()) * mem.PageSize / bytesPerGB
	best := -1.0
	for _, t := range m.Tiers() {
		unit := t.CostPerGB
		if t.Compressed {
			unit *= clampRatio(ratioOf(t.ID))
		}
		if best < 0 || unit < best {
			best = unit
		}
	}
	return bytes * best
}

// MTS returns Eq. 1's maximum TCO savings: Max − Min.
func MTS(m *mem.Manager, ratioOf func(mem.TierID) float64) float64 {
	return Max(m) - Min(m, ratioOf)
}

// Budget returns Eq. 2's TCO budget for knob α ∈ [0,1]:
// TCO_min + α·MTS. α=1 permits everything in DRAM (no savings required);
// α=0 demands maximum savings.
func Budget(m *mem.Manager, ratioOf func(mem.TierID) float64, alpha float64) float64 {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return Min(m, ratioOf) + alpha*MTS(m, ratioOf)
}

// DefaultRatio is the assumed compression ratio for tiers that have not
// stored anything yet (zswap's heuristic expectation of ~2:1).
const DefaultRatio = 0.5

// MeasuredRatios returns a ratioOf function backed by the manager's
// observed per-tier compression ratios, falling back to DefaultRatio for
// empty tiers.
func MeasuredRatios(m *mem.Manager) func(mem.TierID) float64 {
	return func(id mem.TierID) float64 {
		return clampRatio(m.MeasuredRatio(id, DefaultRatio))
	}
}

func clampRatio(r float64) float64 {
	// Footnote 1: the ratio cannot exceed 1 (incompressible pages are
	// rejected); guard against degenerate measurements.
	if r <= 0 {
		return DefaultRatio
	}
	if r > 1 {
		return 1
	}
	return r
}
