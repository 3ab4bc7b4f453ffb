// Package ilp solves TierScape's placement optimization (Eq. 2):
//
//	minimize   perf_ovh = Σ_i cost(i, choice_i)
//	subject to TCO      = Σ_i weight(i, choice_i) ≤ budget
//
// where each region i independently picks exactly one tier. This is the
// minimization form of the Multiple-Choice Knapsack Problem (MCKP). The
// paper solves it with Google OR-Tools every window; this package has one
// from-scratch solver in its place (see DESIGN.md for the substitution
// note): SolveState.Solve, the LP-relaxation greedy over per-class convex
// hulls, O(total options · log), solved afresh every window. Every solve
// certifies itself: the greedy walks the same sorted hull increments the
// LP relaxation does, so it returns the LP optimum as Solution.Bound, a
// proven lower bound on the ILP optimum, and (Cost − Bound)/Cost is how far
// from optimal the window's placement can be at most.
//
// Cost units are nanoseconds of performance overhead; weight units are
// TCO dollars (both arbitrary but consistent).
package ilp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Option is one (tier) choice for a class (region): picking it incurs
// Cost performance overhead and Weight TCO.
type Option struct {
	Cost   float64
	Weight float64
}

// Problem is an MCKP instance.
type Problem struct {
	// Classes lists, per region, the available options (indexed by tier
	// choice). Every class must be non-empty.
	Classes [][]Option
	// Budget is the TCO constraint (Eq. 2's TCO_min + α·MTS).
	Budget float64
}

// Solution is a feasible assignment.
type Solution struct {
	// Choice is the selected option index per class.
	Choice []int
	// Cost is the total performance overhead.
	Cost float64
	// Weight is the total TCO.
	Weight float64
	// Bound is the optimum of the LP relaxation: no assignment within the
	// budget costs less, so Cost − Bound bounds how far Cost is from the
	// ILP optimum. On an infeasible problem no assignment fits the budget
	// and Bound is Cost.
	Bound float64
	// Feasible reports whether Weight ≤ Budget. When even the minimum-
	// weight assignment exceeds the budget, the solver returns that
	// assignment with Feasible=false rather than failing.
	Feasible bool
}

// ErrEmptyProblem is returned for problems with no classes or an empty class.
var ErrEmptyProblem = errors.New("ilp: problem has no classes or an empty class")

func validate(p Problem) error {
	if len(p.Classes) == 0 {
		return ErrEmptyProblem
	}
	for i, c := range p.Classes {
		if len(c) == 0 {
			return fmt.Errorf("ilp: class %d is empty: %w", i, ErrEmptyProblem)
		}
		for _, o := range c {
			if o.Cost < 0 || o.Weight < 0 || math.IsNaN(o.Cost) || math.IsNaN(o.Weight) {
				return fmt.Errorf("ilp: class %d has negative or NaN option", i)
			}
		}
	}
	return nil
}

// hullPoint is an option on a class's lower convex hull.
type hullPoint struct {
	idx  int // original option index
	cost float64
	w    float64
}

// frontierInto returns a class's efficient (undominated) options sorted by
// decreasing weight and increasing cost, written into buf's capacity (buf
// may be nil): the first point is the minimum-cost option, the last the
// lightest.
func frontierInto(opts []Option, buf []hullPoint) []hullPoint {
	pts := buf[:0]
	if cap(pts) < len(opts) {
		pts = make([]hullPoint, 0, len(opts))
	}
	for i, o := range opts {
		pts = append(pts, hullPoint{idx: i, cost: o.Cost, w: o.Weight})
	}
	// Sort by weight ascending; ties broken by cost ascending, then by
	// original option index so equal (weight, cost) duplicates keep a
	// deterministic, input-independent order.
	slices.SortFunc(pts, func(a, b hullPoint) int {
		if c := cmp.Compare(a.w, b.w); c != 0 {
			return c
		}
		if c := cmp.Compare(a.cost, b.cost); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// Keep the efficient frontier: sweeping from light to heavy, a point
	// survives only if it is strictly cheaper (in cost) than every lighter
	// point — i.e. paying more weight must buy less overhead.
	und := pts[:0]
	bestCost := math.Inf(1)
	for _, p := range pts {
		if p.cost < bestCost {
			und = append(und, p)
			bestCost = p.cost
		}
	}
	// Reverse so und[0] is the heaviest, cheapest-cost point (the "all in
	// DRAM" end) and cost increases as weight decreases.
	for i, j := 0, len(und)-1; i < j; i, j = i+1, j-1 {
		und[i], und[j] = und[j], und[i]
	}
	return und
}

// hullInto computes the lower convex hull of a class in (weight, cost)
// space — the frontier with interior points removed so incremental trade
// ratios are nondecreasing — into dst's capacity, with scratch (grown as
// needed and returned via the second result) holding the intermediate
// frontier. dst must not alias scratch.
func hullInto(opts []Option, dst, scratch []hullPoint) ([]hullPoint, []hullPoint) {
	und := frontierInto(opts, scratch)
	hullPts := dst[:0]
	for _, p := range und {
		for len(hullPts) >= 2 {
			a, b := hullPts[len(hullPts)-2], hullPts[len(hullPts)-1]
			// ratio a->b vs a->p: drop b if it lies above segment a-p.
			r1 := (b.cost - a.cost) * (a.w - p.w)
			r2 := (p.cost - a.cost) * (a.w - b.w)
			if r1 >= r2 {
				hullPts = hullPts[:len(hullPts)-1]
			} else {
				break
			}
		}
		hullPts = append(hullPts, p)
	}
	return hullPts, und
}

// inc is one convex-hull increment: moving its class from hull level-1 to
// level costs dc performance and saves dw of weight, at trade ratio dc/dw.
type inc struct {
	class  int
	level  int // move class to this hull level
	dc, dw float64
	ratio  float64
}

// cmpInc is the strict total order of the global increment walk: ratio
// ascending, ties broken by (class, level). The tie-break matters twice.
// First, correctness: with an unstable ratio-only sort, two increments of
// the same class whose distinct real ratios collapse to the same float64
// (quotient rounding; the cross-product convexity test in hullInto is
// exact enough to keep both points) could be emitted level-2-first, and
// the walk's prerequisite guard would then strand that class at level 0
// forever — returning Feasible=false on feasible problems. Second,
// determinism: a strict total order over the unique (class, level) keys
// gives every increment list exactly one sorted permutation, whatever the
// sort algorithm.
func cmpInc(a, b inc) int {
	if c := cmp.Compare(a.ratio, b.ratio); c != 0 {
		return c
	}
	if a.class != b.class {
		return cmp.Compare(a.class, b.class)
	}
	return cmp.Compare(a.level, b.level)
}

// SolveState is the greedy MCKP solver with its buffers: per-class convex
// hulls, the increment list, the walk's per-class levels and the frontier
// scratch. A caller that solves once a window (the analytical model) keeps
// one so those buffers' capacity carries from window to window. Nothing
// else does: every Solve rebuilds every class from the problem it is
// given, so a solve returns the same value whatever the state solved
// before.
//
// The zero value is ready to use. A SolveState is not safe for
// concurrent use.
type SolveState struct {
	hulls   [][]hullPoint // per-class convex hulls (hulls[i][0] = min cost)
	incs    []inc         // hull increments, sorted by cmpInc
	level   []int         // per-class hull position in the walk
	scratch []hullPoint   // frontier construction
}

// Solve solves p with the convex-hull greedy (LP-relaxation rounding).
// The result is feasible whenever the problem is, and optimal up to one
// class's rounding, which Solution.Bound certifies.
func (s *SolveState) Solve(p Problem) (Solution, error) {
	if err := validate(p); err != nil {
		return Solution{}, err
	}
	n := len(p.Classes)
	s.hulls = slices.Grow(s.hulls[:0], n)[:n]
	s.incs = s.incs[:0]
	sol := Solution{Choice: make([]int, n)}
	for i, c := range p.Classes {
		s.hulls[i], s.scratch = hullInto(c, s.hulls[i], s.scratch)
		h := s.hulls[i]
		// Base assignment: every class at its min-cost (heaviest) point,
		// summed in class order.
		sol.Choice[i] = h[0].idx
		sol.Cost += h[0].cost
		sol.Weight += h[0].w
		for k := 1; k < len(h); k++ {
			dc := h[k].cost - h[k-1].cost
			dw := h[k-1].w - h[k].w
			if dw <= 0 {
				continue
			}
			s.incs = append(s.incs, inc{class: i, level: k, dc: dc, dw: dw, ratio: dc / dw})
		}
	}
	if sol.Weight <= p.Budget {
		sol.Feasible = true
		sol.Bound = sol.Cost // every class at its cheapest: nothing costs less
		return sol, nil
	}

	slices.SortFunc(s.incs, cmpInc)
	s.level = slices.Grow(s.level[:0], n)[:n]
	clear(s.level)
	for _, ic := range s.incs {
		if sol.Weight <= p.Budget {
			break
		}
		if s.level[ic.class] != ic.level-1 {
			// Unreachable under cmpInc (per-class increments stay level
			// ascending through any tie), kept as a safety net: a class
			// whose prerequisite was skipped must not jump levels.
			continue
		}
		s.level[ic.class] = ic.level
		if sol.Weight-ic.dw <= p.Budget {
			// The break increment: the LP relaxation takes only the
			// fraction of it that reaches the budget, and that optimum
			// bounds every integer assignment within budget from below.
			sol.Bound = sol.Cost + ic.dc*min(1, (sol.Weight-p.Budget)/ic.dw)
		}
		sol.Cost += ic.dc
		sol.Weight -= ic.dw
		sol.Choice[ic.class] = s.hulls[ic.class][ic.level].idx
	}
	sol.Feasible = sol.Weight <= p.Budget
	if !sol.Feasible {
		// Every increment was taken, so each class sits on its hull's
		// lightest point: the min-weight assignment, with nothing to bound.
		sol.Bound = sol.Cost
	}
	return sol, nil
}

// SolveGreedy is Solve on a fresh SolveState: for a caller that solves
// once.
func SolveGreedy(p Problem) (Solution, error) {
	var s SolveState
	return s.Solve(p)
}

// minWeightSolution returns the assignment minimizing total weight (ties
// broken by cost, then by option index). It is the solver's answer when
// the budget is infeasible: the walk then ends every class on its hull's
// last point, which is that same option.
func minWeightSolution(p Problem) Solution {
	sol := Solution{Choice: make([]int, len(p.Classes))}
	for i, c := range p.Classes {
		best := 0
		for j, o := range c {
			if o.Weight < c[best].Weight ||
				(o.Weight == c[best].Weight && o.Cost < c[best].Cost) {
				best = j
			}
		}
		sol.Choice[i] = best
		sol.Cost += c[best].Cost
		sol.Weight += c[best].Weight
	}
	sol.Feasible = sol.Weight <= p.Budget
	return sol
}

// MinWeight returns the minimum achievable total weight (TCO_min across
// choices) — useful for computing Eq. 1's MTS.
func MinWeight(p Problem) float64 {
	return minWeightSolution(p).Weight
}

// MaxWeight returns the total weight when every class picks its
// minimum-cost option (TCO_max: everything in DRAM).
func MaxWeight(p Problem) float64 {
	total := 0.0
	for _, c := range p.Classes {
		best := 0
		for j, o := range c {
			if o.Cost < c[best].Cost {
				best = j
			}
		}
		total += c[best].Weight
	}
	return total
}

// SolveTimeNs models the ILP solve tax for Figure 14: OR-Tools on this
// problem class is reported at <0.3% of one CPU; the model charges linear
// work per option plus sort overhead.
func SolveTimeNs(p Problem) float64 {
	opts := 0
	for _, c := range p.Classes {
		opts += len(c)
	}
	n := float64(opts)
	if n < 2 {
		n = 2
	}
	return 150*n*math.Log2(n) + 50_000
}
