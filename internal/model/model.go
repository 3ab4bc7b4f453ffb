// Package model implements TierScape's data placement models (§6):
//
//   - Waterfall — threshold tiering with gradual aging: cold regions
//     demote one tier per profile window ("waterfalling" toward the best
//     TCO tier); hot regions promote straight to DRAM (§6.1, Figure 3).
//   - Analytical — the ILP model of §6.2–6.6: minimize performance
//     overhead subject to a TCO budget chosen by the knob α, solved per
//     window over the observed hotness profile (internal/ilp).
//   - TwoTier — the baseline family: HeMem* (slow tier = NVMM), GSwap*
//     (slow tier = CT-1) and TMO* (slow tier = CT-2), all percentile-
//     threshold based (§8.1). Baseline derives each one's slow tier from
//     a tier lineup (paper.go).
//
// A model consumes the window's hotness profile and the manager's tier
// inventory and emits a destination tier per region. The policy filter
// (internal/policy) post-processes recommendations before migration,
// keeping migration-cost concerns out of the models themselves (§6.7).
package model

import (
	"fmt"
	"slices"

	"tierscape/internal/ilp"
	"tierscape/internal/mem"
	"tierscape/internal/tco"
	"tierscape/internal/telemetry"
	"tierscape/internal/ztier"
)

// SolveStats describes how the analytical model's solve went: its
// infeasibility fallbacks and its proven gap. Threshold models leave it
// zero.
type SolveStats struct {
	// Fallbacks counts solves whose budget not even the lightest
	// assignment fits; the solver's answer is then the min-weight
	// assignment.
	Fallbacks int
	// LPGap is (Cost − Bound)/Cost of the solve: the placement's modeled
	// overhead is proven within this fraction of the ILP optimum. It is 0
	// when the cost is 0 and on infeasible windows.
	LPGap float64
}

// Recommendation is a model's output for one profile window.
type Recommendation struct {
	// Dest maps each region to its recommended tier.
	Dest []mem.TierID
	// SolverNs is the modeled cost of computing the recommendation
	// (ILP solve time for the analytical model; ~0 for threshold models).
	SolverNs float64
	// Solve carries the analytical model's solver diagnostics.
	Solve SolveStats
}

// Model recommends per-region tier placement at each window boundary.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// Recommend computes destinations for every region given the profile.
	Recommend(m *mem.Manager, prof telemetry.Profile) Recommendation
}

// Keep returns a recommendation that leaves every region where it is —
// useful as a baseline and for filters.
func Keep(m *mem.Manager) Recommendation {
	n := m.NumRegions()
	dest := make([]mem.TierID, n)
	for r := mem.RegionID(0); int64(r) < n; r++ {
		dest[r] = m.DominantTier(r)
	}
	return Recommendation{Dest: dest}
}

// TwoTier is the percentile-threshold baseline: regions hotter than the
// Pct-th percentile go to DRAM, everything else to SlowTier. With
// SlowTier=NVMM this is HeMem*; with a CT-1-like compressed tier GSwap*;
// with a CT-2-like tier TMO* (§8.1).
type TwoTier struct {
	// ModelName is the reported name (e.g. "HeMem*").
	ModelName string
	// SlowTier is where non-hot regions are pushed.
	SlowTier mem.TierID
	// Pct is the hotness percentile threshold (the paper uses 25 for the
	// baselines; higher is more aggressive).
	Pct float64
}

// Name implements Model.
func (t *TwoTier) Name() string {
	if t.ModelName != "" {
		return t.ModelName
	}
	return fmt.Sprintf("TwoTier(P%.0f,T%d)", t.Pct, t.SlowTier)
}

// Recommend implements Model.
func (t *TwoTier) Recommend(m *mem.Manager, prof telemetry.Profile) Recommendation {
	thr := prof.Threshold(t.Pct)
	n := m.NumRegions()
	dest := make([]mem.TierID, n)
	for r := int64(0); r < n; r++ {
		if prof.Hotness[r] > thr {
			dest[r] = mem.DRAMTier
		} else {
			dest[r] = t.SlowTier
		}
	}
	return Recommendation{Dest: dest}
}

// Waterfall is §6.1's model. Tiers are ordered by TierID (the manager
// constructs them low-to-high latency); a non-hot region in tier k demotes
// to tier k+1, the last tier holds, and hot regions promote to DRAM.
type Waterfall struct {
	// Pct is the hotness percentile threshold (H_th analogue).
	Pct float64
}

// Name implements Model.
func (w *Waterfall) Name() string { return "Waterfall" }

// Recommend implements Model.
func (w *Waterfall) Recommend(m *mem.Manager, prof telemetry.Profile) Recommendation {
	thr := prof.Threshold(w.Pct)
	tiers := m.Tiers()
	last := mem.TierID(len(tiers) - 1)
	n := m.NumRegions()
	dest := make([]mem.TierID, n)
	for r := int64(0); r < n; r++ {
		cur := m.DominantTier(mem.RegionID(r))
		switch {
		case prof.Hotness[r] > thr:
			// Hot pages always return to DRAM and restart their journey.
			dest[r] = mem.DRAMTier
		case cur < last:
			dest[r] = cur + 1
		default:
			dest[r] = last
		}
	}
	return Recommendation{Dest: dest}
}

// Analytical is §6.2's model: an MCKP per window.
//
// Every Recommend prices every region and solves the window's MCKP
// afresh; an instance keeps only the capacity of its option arena and
// solver buffers from window to window, and its probe cache. It is
// per-run state: do not share one instance across concurrent simulations.
type Analytical struct {
	// Alpha is the TCO/performance knob in [0,1] (§6.3): 1 = maximum
	// performance (no TCO pressure), 0 = maximum TCO savings.
	Alpha float64
	// ModelName overrides the reported name (e.g. "AM-TCO", "AM-perf").
	ModelName string
	// CompressibilityAware enables per-region compressibility probing
	// (§9's future-work direction ii): instead of one measured ratio per
	// tier, the model samples each region's actual compressibility under
	// each tier's codec, so incompressible regions are routed to
	// byte-addressable tiers and highly-compressible ones to dense tiers.
	// Probes are cached; their compression cost is charged to SolverNs.
	CompressibilityAware bool

	ratioCache map[ratioKey]float64
	bufs       *buffers
}

// probePages is how many pages per region a compressibility probe
// compresses.
const probePages = 2

// buffers is the capacity an Analytical reuses from window to window: the
// option arena its regions are priced into and the solver's buffers. No
// value carries over.
type buffers struct {
	arena   []ilp.Option   // flat backing, nRegions × nTiers
	classes [][]ilp.Option // views into arena, one per region
	solver  ilp.SolveState
}

type ratioKey struct {
	region mem.RegionID
	codec  string
}

// regionRatio returns the probed (and cached) compressibility of region r
// under codec, plus the modeled probe cost for cache misses.
func (a *Analytical) regionRatio(m *mem.Manager, r mem.RegionID, codec string) (float64, float64) {
	if a.ratioCache == nil {
		a.ratioCache = make(map[ratioKey]float64)
	}
	k := ratioKey{r, codec}
	if v, ok := a.ratioCache[k]; ok {
		return v, 0
	}
	ratio, err := m.SampleRegionRatio(r, codec, probePages)
	if err != nil {
		ratio = tco.DefaultRatio
	}
	if ratio > 1 {
		ratio = 1
	}
	a.ratioCache[k] = ratio
	return ratio, probePages * ztier.CompressNs(codec, mem.PageSize)
}

// SetAlpha retunes the TCO/performance knob between windows — the
// resident daemon's runtime α command. α enters the solve only through
// the TCO budget (Eq. 10 via tco.Budget), never the per-class option
// pricing, and every window is solved afresh, so the next Recommend
// simply solves against the new budget. Not safe concurrently with
// Recommend — call it from the thread driving the control loop.
func (a *Analytical) SetAlpha(alpha float64) error {
	if err := CheckKnobs(alpha, 0); err != nil {
		return err
	}
	a.Alpha = alpha
	return nil
}

// CheckKnobs refuses an α outside [0,1] or a hotness percentile outside
// [0,100], NaN included.
func CheckKnobs(alpha, pct float64) error {
	for _, k := range []struct {
		name   string
		v, max float64
	}{{"alpha", alpha, 1}, {"pct", pct, 100}} {
		if !(k.v >= 0 && k.v <= k.max) {
			return fmt.Errorf("model: %s must be in [0,%v], got %v", k.name, k.max, k.v)
		}
	}
	return nil
}

// Name implements Model.
func (a *Analytical) Name() string {
	if a.ModelName != "" {
		return a.ModelName
	}
	return fmt.Sprintf("AM(α=%.2f)", a.Alpha)
}

// Recommend implements Model. Costs follow Eq. 7 — each estimated access
// to a region placed in byte-addressable tier x costs δ_x = Lat_x −
// Lat_DRAM, and in compressed tier y costs Lat_CTy — and weights follow
// Eq. 10 with measured per-tier compression ratios.
func (a *Analytical) Recommend(m *mem.Manager, prof telemetry.Profile) Recommendation {
	tiers := m.Tiers()
	ratios := tco.MeasuredRatios(m)
	dramLat := tiers[mem.DRAMTier].AccessNs
	dramUnit := tiers[mem.DRAMTier].CostPerGB

	nRegions := m.NumRegions()

	var probeNs float64
	// priceRow fills opts with region r's per-tier (cost, weight) options.
	priceRow := func(r int64, opts []ilp.Option) {
		// The final region may be partial; weight it by its actual pages.
		start, end := m.RegionSpan(mem.RegionID(r))
		regionGB := float64(end-start) * mem.PageSize / (1 << 30)
		acc := prof.EstimatedAccesses(mem.RegionID(r))
		for j, t := range tiers {
			var penalty float64
			unit := t.CostPerGB
			if t.Compressed {
				penalty = t.AccessNs // Lat_CT (Eq. 7, second term)
				if a.CompressibilityAware {
					ratio, cost := a.regionRatio(m, mem.RegionID(r), t.Codec)
					probeNs += cost
					if ratio >= 0.97 {
						// Effectively incompressible: the tier would reject
						// these pages and they would bounce to a byte tier
						// at full cost ("even if the page is cold, it is
						// not beneficial to place it in a compressed tier
						// if the page is not compressible" — §3.3). Price
						// the option at DRAM cost — the normalization unit
						// is the catalog's DRAM CostPerGB, not 1.0 — so it
						// is dominated even under custom catalogs.
						unit = dramUnit
					} else {
						unit *= ratio
					}
				} else {
					unit *= ratios(t.ID)
				}
			} else {
				penalty = t.AccessNs - dramLat // δ_TN (Eq. 7, first term)
			}
			opts[j] = ilp.Option{
				Cost:   acc * penalty,
				Weight: regionGB * unit,
			}
		}
	}

	b := a.price(int(nRegions), len(tiers), priceRow)
	problem := ilp.Problem{Classes: b.classes, Budget: tco.Budget(m, ratios, a.Alpha)}

	sol, err := b.solver.Solve(problem)
	if err != nil {
		// The problem is structurally valid by construction; an error here
		// means no regions — keep everything in place.
		return Keep(m)
	}
	var stats SolveStats
	if !sol.Feasible {
		// Not even the lightest assignment fits the budget. The walk took
		// every hull increment, so sol already is the min-weight placement
		// rather than an over-budget one; count the window.
		stats.Fallbacks++
	} else if sol.Cost > 0 {
		stats.LPGap = (sol.Cost - sol.Bound) / sol.Cost
	}

	dest := make([]mem.TierID, nRegions)
	for r := range dest {
		dest[r] = tiers[sol.Choice[r]].ID
	}
	return Recommendation{Dest: dest, SolverNs: ilp.SolveTimeNs(problem) + probeNs, Solve: stats}
}

// price prices every region into the option arena, one class per region,
// and returns the buffers holding them.
func (a *Analytical) price(nRegions, nTiers int, priceRow func(int64, []ilp.Option)) *buffers {
	if a.bufs == nil {
		a.bufs = new(buffers)
	}
	b := a.bufs
	b.arena = slices.Grow(b.arena[:0], nRegions*nTiers)[:nRegions*nTiers]
	b.classes = slices.Grow(b.classes[:0], nRegions)[:nRegions]
	for r := range b.classes {
		b.classes[r] = b.arena[r*nTiers : (r+1)*nTiers : (r+1)*nTiers]
		priceRow(int64(r), b.classes[r])
	}
	return b
}
