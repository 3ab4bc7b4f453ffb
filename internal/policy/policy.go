// Package policy implements the migration filter of §6.7: a
// pre-processing pass over a placement model's recommendation, applied
// before any page moves, that
//
//   - drops no-op moves (region already dominant in the destination), and
//   - avoids moving regions into "pressured" tiers — compressed tiers
//     whose recent fault rate indicates placements are bouncing straight
//     back (the Figure 9b/9c behaviour).
//
// At the product's threshold (DefaultConfig) the pressure check drops
// moves in 57 of the 236 runs of `experiments -fig all` at the default
// scale (22 of them AM's) and in 39 at small scale. Keeping these concerns
// out of the ILP keeps the solve cheap (§6.7).
package policy

import (
	"sort"

	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/telemetry"
)

// Config tunes the filter.
type Config struct {
	// PressureFaultRate marks a compressed tier pressured when its faults
	// during the last window exceed this fraction of the pages it holds
	// (0 = pressure filtering disabled). Pressured tiers accept no new
	// placements this window.
	PressureFaultRate float64
}

// DefaultConfig returns the filter configuration used by TS-Daemon.
func DefaultConfig() Config {
	return Config{
		PressureFaultRate: 2.0, // >2 faults per resident page per window
	}
}

// Filter applies migration-cost and contention policy to recommendations.
type Filter struct {
	cfg        Config
	lastFaults map[mem.TierID]int64
}

// NewFilter returns a filter with cfg.
func NewFilter(cfg Config) *Filter {
	return &Filter{cfg: cfg, lastFaults: make(map[mem.TierID]int64)}
}

// Plan is the filtered migration plan: the region moves to actually apply,
// coldest first.
type Plan struct {
	Moves []Move
	// DroppedPressure counts moves skipped due to tier pressure.
	DroppedPressure int
}

// Move is one region migration: Region moves From → Dest. From is the
// region's dominant tier when the plan was drawn; the apply engine never
// reads it (commits re-derive residency page by page), but the
// observability layer's src→dst migration matrix does, and the filter
// already computes it for the no-op check, so carrying it is free.
type Move struct {
	Region mem.RegionID
	From   mem.TierID
	Dest   mem.TierID
}

// Apply filters rec into an executable plan. prof supplies the hotness
// used to order moves; pass the same profile given to the model.
func (f *Filter) Apply(m *mem.Manager, rec model.Recommendation, prof telemetry.Profile) Plan {
	tiers := m.Tiers()
	pages := m.TierPages()

	// Identify pressured compressed tiers from last window's fault delta.
	pressured := make(map[mem.TierID]bool)
	if f.cfg.PressureFaultRate > 0 {
		for _, t := range tiers {
			if !t.Compressed {
				continue
			}
			s, err := m.CompressedTierStats(t.ID)
			if err != nil {
				continue
			}
			delta := s.Faults - f.lastFaults[t.ID]
			f.lastFaults[t.ID] = s.Faults
			resident := pages[t.ID]
			if resident > 0 && float64(delta) > f.cfg.PressureFaultRate*float64(resident) {
				pressured[t.ID] = true
			}
		}
	}

	// Collect candidate moves: recommendation differs from current
	// dominant tier.
	var plan Plan
	type cand struct {
		mv  Move
		hot float64
	}
	var cands []cand
	for r, dest := range rec.Dest {
		rid := mem.RegionID(r)
		dom := m.DominantTier(rid)
		if dom == dest {
			continue
		}
		if pressured[dest] {
			plan.DroppedPressure++
			continue
		}
		hot := 0.0
		if r < len(prof.Hotness) {
			hot = prof.Hotness[r]
		}
		cands = append(cands, cand{Move{Region: rid, From: dom, Dest: dest}, hot})
	}
	// Coldest regions first. The apply engine commits in plan order, and
	// every pool's layout — so every compressed byte the TCO counts —
	// follows from that order: it is part of the plan, not a preference.
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].hot < cands[b].hot })
	for _, c := range cands {
		plan.Moves = append(plan.Moves, c.mv)
	}
	return plan
}
