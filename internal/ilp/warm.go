package ilp

import "sort"

// SolveState is a warm-start greedy MCKP solver. It persists per-class
// convex hulls, per-class increment runs, and the globally sorted
// increment list across solves, so a caller whose problem drifts slowly
// (the window control loop: most regions' hotness and ratios are
// unchanged window-over-window) only pays to rebuild the classes that
// actually changed.
//
// Contract: on a warm solve (dirty != nil, same class count as the
// previous solve) the caller asserts that every class i with
// dirty[i]==false has options bitwise identical to the previous solve.
// The solver does not verify this; violating it silently reuses stale
// hulls. Anything else — first solve, dirty==nil, or a class-count
// change — is a cold solve that rebuilds everything.
//
// Determinism: a warm solve is value-identical to a cold solve of the
// same problem. Rebuilt classes produce the same hulls a cold solve
// would (same code path), the merge of the cached and rebuilt increment
// runs equals a full sort because lessInc is a strict total order (no
// equal elements exist: (class, level) keys are unique), and the base
// cost/weight sums are recomputed from scratch in class order every
// solve rather than patched incrementally, so no floating-point drift
// can accumulate across windows.
//
// The zero value is ready to use. A SolveState is not safe for
// concurrent use.
type SolveState struct {
	hulls     [][]hullPoint // per-class convex hulls (hulls[i][0] = min cost)
	classIncs [][]inc       // per-class increment runs, level ascending
	incs      []inc         // global increment list, sorted by lessInc
	merged    []inc         // scratch for the warm merge
	fresh     []inc         // scratch: rebuilt classes' increments
	level     []int         // scratch: per-class hull position in the walk
	scratch   []hullPoint   // scratch for frontier construction
}

// Delta reports what a Solve reused versus rebuilt.
type Delta struct {
	// Warm is true when the solve repaired cached state (dirty accepted)
	// rather than rebuilding from scratch.
	Warm bool
	// Reused and Rebuilt count classes whose hulls were kept vs recomputed.
	Reused, Rebuilt int
}

// rebuildClass recomputes class i's hull and increment run from p.
func (s *SolveState) rebuildClass(p Problem, i int) {
	s.hulls[i], s.scratch = hullInto(p.Classes[i], s.hulls[i], s.scratch)
	h := s.hulls[i]
	ci := s.classIncs[i][:0]
	for k := 1; k < len(h); k++ {
		dc := h[k].cost - h[k-1].cost
		dw := h[k-1].w - h[k].w
		if dw <= 0 {
			continue
		}
		ci = append(ci, inc{class: i, level: k, dc: dc, dw: dw, ratio: dc / dw})
	}
	s.classIncs[i] = ci
}

// Solve solves p, reusing cached per-class state for classes not marked
// dirty. dirty==nil (or a class-count mismatch with the cached state)
// forces a cold solve. See the type comment for the caller contract.
func (s *SolveState) Solve(p Problem, dirty []bool) (Solution, Delta, error) {
	if err := validate(p); err != nil {
		return Solution{}, Delta{}, err
	}
	n := len(p.Classes)
	var delta Delta
	warm := dirty != nil && len(dirty) == n && len(s.hulls) == n
	if !warm {
		if len(s.hulls) != n {
			s.hulls = make([][]hullPoint, n)
			s.classIncs = make([][]inc, n)
		}
		for i := range p.Classes {
			s.rebuildClass(p, i)
		}
		delta.Rebuilt = n
		// Full sort: concatenate class runs in class order, then sort by
		// the strict total order. Identical generation order to a
		// per-class append loop, so values match the legacy cold solver.
		s.incs = s.incs[:0]
		for _, ci := range s.classIncs {
			s.incs = append(s.incs, ci...)
		}
		sort.Slice(s.incs, func(a, b int) bool { return lessInc(s.incs[a], s.incs[b]) })
	} else {
		delta.Warm = true
		for i, d := range dirty {
			if d {
				s.rebuildClass(p, i)
				delta.Rebuilt++
			}
		}
		delta.Reused = n - delta.Rebuilt
		if delta.Rebuilt > 0 {
			s.mergeDirty(dirty)
		}
	}

	// Base assignment and the greedy walk are recomputed from scratch in
	// class order every solve — never patched — so warm results are
	// bitwise identical to cold ones.
	sol := Solution{Choice: make([]int, n)}
	for i, h := range s.hulls {
		h0 := h[0] // min-cost (heaviest) point
		sol.Choice[i] = h0.idx
		sol.Cost += h0.cost
		sol.Weight += h0.w
	}
	if sol.Weight <= p.Budget {
		sol.Feasible = true
		sol.Bound = sol.Cost // every class at its cheapest: nothing costs less
		return sol, delta, nil
	}

	if cap(s.level) < n {
		s.level = make([]int, n)
	}
	level := s.level[:n]
	for i := range level {
		level[i] = 0
	}
	for _, ic := range s.incs {
		if sol.Weight <= p.Budget {
			break
		}
		if level[ic.class] != ic.level-1 {
			// Unreachable under lessInc (per-class increments stay level
			// ascending through any tie), kept as a safety net: a class
			// whose prerequisite was skipped must not jump levels.
			continue
		}
		level[ic.class] = ic.level
		if sol.Weight-ic.dw <= p.Budget {
			// The break increment: the LP relaxation takes only the
			// fraction of it that reaches the budget, and that optimum
			// bounds every integer assignment within budget from below.
			sol.Bound = sol.Cost + ic.dc*min(1, (sol.Weight-p.Budget)/ic.dw)
		}
		h := s.hulls[ic.class][ic.level]
		sol.Cost += ic.dc
		sol.Weight -= ic.dw
		sol.Choice[ic.class] = h.idx
	}
	sol.Feasible = sol.Weight <= p.Budget
	if !sol.Feasible {
		// Every increment was taken, so each class sits on its hull's
		// lightest point: the min-weight assignment, with nothing to bound.
		sol.Bound = sol.Cost
	}
	return sol, delta, nil
}

// mergeDirty rebuilds the global increment list after the dirty classes'
// runs were recomputed: surviving entries of s.incs (clean classes, still
// sorted) are merged with the freshly sorted dirty runs. Because lessInc
// is a strict total order over unique keys, the merge result is exactly
// the permutation a full sort would produce.
func (s *SolveState) mergeDirty(dirty []bool) {
	s.fresh = s.fresh[:0]
	for i, d := range dirty {
		if d {
			s.fresh = append(s.fresh, s.classIncs[i]...)
		}
	}
	sort.Slice(s.fresh, func(a, b int) bool { return lessInc(s.fresh[a], s.fresh[b]) })

	s.merged = s.merged[:0]
	j := 0
	for _, ic := range s.incs {
		if dirty[ic.class] {
			continue // stale entry of a rebuilt class
		}
		for j < len(s.fresh) && lessInc(s.fresh[j], ic) {
			s.merged = append(s.merged, s.fresh[j])
			j++
		}
		s.merged = append(s.merged, ic)
	}
	s.merged = append(s.merged, s.fresh[j:]...)
	s.incs, s.merged = s.merged, s.incs
}
