package ilp

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"tierscape/internal/stats"
)

// legacyGreedy reproduces the pre-fix SolveGreedy: an unstable sort.Slice
// on ratio alone, with no (class, level) tie-break. Kept here so the
// regression below demonstrates the exact failure the fix removes.
func legacyGreedy(p Problem) (Solution, error) {
	if err := validate(p); err != nil {
		return Solution{}, err
	}
	n := len(p.Classes)
	hulls := make([][]hullPoint, n)
	level := make([]int, n)

	sol := Solution{Choice: make([]int, n)}
	for i, c := range p.Classes {
		hulls[i], _ = hullInto(c, nil, nil)
		h0 := hulls[i][0]
		sol.Choice[i] = h0.idx
		sol.Cost += h0.cost
		sol.Weight += h0.w
	}
	if sol.Weight <= p.Budget {
		sol.Feasible = true
		return sol, nil
	}
	var incs []inc
	for i, h := range hulls {
		for k := 1; k < len(h); k++ {
			dc := h[k].cost - h[k-1].cost
			dw := h[k-1].w - h[k].w
			if dw <= 0 {
				continue
			}
			incs = append(incs, inc{class: i, level: k, dc: dc, dw: dw, ratio: dc / dw})
		}
	}
	sort.Slice(incs, func(a, b int) bool { return incs[a].ratio < incs[b].ratio })
	for _, ic := range incs {
		if sol.Weight <= p.Budget {
			break
		}
		if level[ic.class] != ic.level-1 {
			continue
		}
		level[ic.class] = ic.level
		h := hulls[ic.class][ic.level]
		sol.Cost += ic.dc
		sol.Weight -= ic.dw
		sol.Choice[ic.class] = h.idx
	}
	sol.Feasible = sol.Weight <= p.Budget
	return sol, nil
}

// tiedRatioProblem builds a feasible 12-class instance where class 0's two
// hull increments have distinct real trade ratios that round to the same
// float64. Class 0's options are (0,10), (2d,7), (3d,6) with d the
// smallest denormal: the cross-product convexity test in hullInto is exact
// (denormal products stay representable), so all three points survive on
// the hull, but the increment ratios 2d/3 and d/1 both round to d. The
// remaining 11 filler classes carry varied dyadic-exact ratios sized so
// the unstable pre-fix sort emits class 0's level-2 increment before its
// level-1 — the walk's prerequisite guard then strands class 0 at level 0
// and the pre-fix solver reports Feasible=false on this feasible problem.
func tiedRatioProblem() Problem {
	const d = 5e-324
	p := Problem{}
	p.Classes = append(p.Classes, []Option{
		{Cost: 0, Weight: 10},
		{Cost: 2 * d, Weight: 7},
		{Cost: 3 * d, Weight: 6},
	})
	for c := 1; c < 12; c++ {
		r := float64(1+c%7) * 0.125
		p.Classes = append(p.Classes, []Option{
			{Cost: 0, Weight: 2},
			{Cost: r, Weight: 1},
		})
	}
	// Minimum achievable weight: 6 + 11×1 = 17. Budget == minimum forces
	// the walk to take every increment, including class 0's level 2.
	p.Budget = 17
	return p
}

func TestGreedyEqualRatioTieBreak(t *testing.T) {
	p := tiedRatioProblem()
	if mw := MinWeight(p); mw != p.Budget {
		t.Fatalf("construction broken: MinWeight=%v, want %v", mw, p.Budget)
	}

	sol, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Feasible {
		t.Fatalf("fixed solver returned Feasible=false on a feasible problem: %+v", sol)
	}
	if sol.Weight != p.Budget {
		t.Fatalf("weight = %v, want %v", sol.Weight, p.Budget)
	}
	if sol.Choice[0] != 2 {
		t.Fatalf("class 0 choice = %d, want 2 (lightest option)", sol.Choice[0])
	}

	// The pre-fix comparator strands class 0. (This half of the test
	// documents the bug rather than guarding the fix: it depends on how
	// the current sort.Slice implementation permutes equal keys, which is
	// what "unstable and unspecified" means.)
	old, err := legacyGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if old.Feasible {
		t.Log("note: this Go version's unstable sort happened to keep the tied increments in class-level order")
	} else if old.Weight != 18 {
		t.Fatalf("legacy solver weight = %v, want 18 (class 0 stranded at level 1)", old.Weight)
	}
}

// TestCmpIncTotalOrder checks the increment comparator is a strict total
// order on the unique (class, level) keys even with equal ratios: the
// property that gives the increment list one sorted permutation.
func TestCmpIncTotalOrder(t *testing.T) {
	incs := []inc{
		{class: 0, level: 1, ratio: 1},
		{class: 0, level: 2, ratio: 1},
		{class: 1, level: 1, ratio: 1},
		{class: 1, level: 2, ratio: 0.5},
	}
	for i := range incs {
		for j := range incs {
			c, r := cmpInc(incs[i], incs[j]), cmpInc(incs[j], incs[i])
			if i == j {
				if c != 0 {
					t.Fatalf("cmpInc(%v, itself) = %d, want 0", incs[i], c)
				}
				continue
			}
			if c == 0 || c != -r {
				t.Fatalf("cmpInc not a strict total order for %v vs %v: %d and %d", incs[i], incs[j], c, r)
			}
		}
	}
}

// TestWarmMatchesColdRandom drifts random problems window over window,
// changing their class count twice (down, then up), and checks that a
// SolveState kept across all the windows returns solutions bitwise
// identical to a fresh SolveGreedy of each window's problem: the state's
// buffers carry from solve to solve, its answers do not.
func TestWarmMatchesColdRandom(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := stats.NewRNG(seed)
		var ws SolveState
		for _, n := range []int{6 + rng.Intn(10), 2 + rng.Intn(4), 16 + rng.Intn(10)} {
			p := randomProblem(rng, n, 2+rng.Intn(4))
			for win := 0; win < 10; win++ {
				if win > 0 {
					for k := rng.Intn(n); k > 0; k-- {
						i := rng.Intn(n)
						for j := range p.Classes[i] {
							p.Classes[i][j] = Option{Cost: rng.Float64() * 100, Weight: rng.Float64() * 100}
						}
					}
					p.Budget *= 0.8 + 0.4*rng.Float64()
				}
				got, err := ws.Solve(p)
				if err != nil {
					t.Fatalf("seed %d, %d classes, win %d: persistent solve: %v", seed, n, win, err)
				}
				want, err := SolveGreedy(p)
				if err != nil {
					t.Fatalf("seed %d, %d classes, win %d: fresh solve: %v", seed, n, win, err)
				}
				if !reflect.DeepEqual(got, want) || math.Float64bits(got.Bound) != math.Float64bits(want.Bound) {
					t.Fatalf("seed %d, %d classes, win %d: persistent %+v != fresh %+v", seed, n, win, got, want)
				}
			}
		}
	}
}

// tieHeavyProblem quantizes costs and weights onto coarse grids so
// equal-ratio increments — within and across classes — are the common
// case rather than the exception.
func tieHeavyProblem(rng *stats.RNG, nClasses, nOpts int) Problem {
	p := Problem{}
	total := 0.0
	for i := 0; i < nClasses; i++ {
		var c []Option
		for j := 0; j < nOpts; j++ {
			c = append(c, Option{
				Cost:   float64(rng.Intn(6)) * 0.5,
				Weight: float64(1 + rng.Intn(5)),
			})
		}
		p.Classes = append(p.Classes, c)
		maxw := 0.0
		for _, o := range c {
			maxw = math.Max(maxw, o.Weight)
		}
		total += maxw
	}
	p.Budget = rng.Float64() * total
	return p
}

// TestGreedyVsExactTieHeavy is the randomized property test over
// tie-heavy instances: feasibility verdicts must agree with the
// enumerated optimum (post-fix, greedy infeasibility means MinWeight >
// Budget — no slack condition needed), and feasible greedy solutions
// respect the budget and cost at least the optimum.
func TestGreedyVsExactTieHeavy(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := stats.NewRNG(seed)
		p := tieHeavyProblem(rng, 2+rng.Intn(8), 2+rng.Intn(4))
		g, err := SolveGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		e := bruteForce(p)
		wantFeasible := MinWeight(p) <= p.Budget
		if g.Feasible != wantFeasible {
			t.Fatalf("seed %d: greedy Feasible=%v but MinWeight=%v Budget=%v\nproblem: %+v",
				seed, g.Feasible, MinWeight(p), p.Budget, p)
		}
		if g.Feasible != e.Feasible {
			t.Fatalf("seed %d: greedy Feasible=%v, exact Feasible=%v", seed, g.Feasible, e.Feasible)
		}
		if g.Feasible {
			if g.Weight > p.Budget {
				t.Fatalf("seed %d: feasible greedy over budget: %v > %v", seed, g.Weight, p.Budget)
			}
			if g.Cost < e.Cost-1e-9 {
				t.Fatalf("seed %d: greedy cost %v below exact optimum %v", seed, g.Cost, e.Cost)
			}
		}
	}
}

// FuzzGreedyInvariants fuzzes validate/hull/greedy with problems decoded
// from raw bytes, seeded with values shaped like the figure harness's
// (access-cost, priced-weight) options. Invariants: no panics; on valid
// input the choice vector is in range, feasibility matches MinWeight vs
// Budget exactly, and feasible solutions respect the budget.
func FuzzGreedyInvariants(f *testing.F) {
	f.Add(uint16(3), uint16(4), int64(170), []byte{10, 0, 200, 1, 150, 2, 120, 3})
	f.Add(uint16(12), uint16(3), int64(17), []byte{0, 10, 1, 7, 2, 6, 0, 2, 3, 1})
	f.Add(uint16(1), uint16(1), int64(-5), []byte{0, 0})
	f.Add(uint16(4), uint16(4), int64(900), []byte{255, 255, 0, 0, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, nc, no uint16, budget int64, raw []byte) {
		nClasses := int(nc%24) + 1
		nOpts := int(no%6) + 1
		if len(raw) < 2 {
			return
		}
		at := func(k int) float64 { return float64(raw[k%len(raw)]) }
		p := Problem{Budget: float64(budget)}
		k := 0
		for i := 0; i < nClasses; i++ {
			c := make([]Option, nOpts)
			for j := range c {
				// Quantize to quarters so ratio ties are frequent.
				c[j] = Option{Cost: at(k) * 0.25, Weight: at(k+1) * 0.25}
				k += 2
			}
			p.Classes = append(p.Classes, c)
		}
		sol, err := SolveGreedy(p)
		if err != nil {
			return // validate rejected it; nothing more to check
		}
		for i, ch := range sol.Choice {
			if ch < 0 || ch >= len(p.Classes[i]) {
				t.Fatalf("choice[%d]=%d out of range", i, ch)
			}
		}
		wantFeasible := MinWeight(p) <= p.Budget
		if sol.Feasible != wantFeasible {
			t.Fatalf("Feasible=%v but MinWeight=%v Budget=%v", sol.Feasible, MinWeight(p), p.Budget)
		}
		if sol.Feasible && sol.Weight > p.Budget {
			t.Fatalf("feasible over budget: %v > %v", sol.Weight, p.Budget)
		}
		if sol.Feasible && !(0 <= sol.Bound && sol.Bound <= sol.Cost) {
			t.Fatalf("bound %v outside [0, cost %v]", sol.Bound, sol.Cost)
		}
	})
}

// lpGap is model.SolveStats.LPGap's formula: the share of the cost the
// LP bound leaves uncertified.
func lpGap(s Solution) float64 {
	if !s.Feasible || s.Cost == 0 {
		return 0
	}
	return (s.Cost - s.Bound) / s.Cost
}

// TestLPBoundValid checks the certificate every solve reports: the LP
// bound never exceeds the enumerated optimum, the quantized DP's cost or
// the solver's own cost, and the gap it certifies lies in [0, 1]. Both
// random and tie-heavy instances, at most 10 classes so enumeration is
// the ground truth.
func TestLPBoundValid(t *testing.T) {
	const tol = 1e-9
	for seed := uint64(1); seed <= 60; seed++ {
		rng := stats.NewRNG(seed)
		for _, p := range []Problem{
			randomProblem(rng, 2+rng.Intn(9), 2+rng.Intn(4)),
			tieHeavyProblem(rng, 2+rng.Intn(9), 2+rng.Intn(4)),
		} {
			s, err := SolveGreedy(p)
			if err != nil {
				t.Fatal(err)
			}
			if s.Bound > s.Cost {
				t.Fatalf("seed %d: bound %v above cost %v", seed, s.Bound, s.Cost)
			}
			if opt := bruteForce(p); opt.Feasible && s.Bound > opt.Cost+tol {
				t.Fatalf("seed %d: bound %v above the optimum %v (greedy cost %v)", seed, s.Bound, opt.Cost, s.Cost)
			}
			dp, err := SolveDP(p, 2000)
			if err != nil {
				t.Fatal(err)
			}
			if dp.Feasible && s.Bound > dp.Cost+tol {
				t.Fatalf("seed %d: bound %v above the DP cost %v", seed, s.Bound, dp.Cost)
			}
			if g := lpGap(s); !(0 <= g && g <= 1) {
				t.Fatalf("seed %d: gap %v outside [0, 1] (cost %v, bound %v)", seed, g, s.Cost, s.Bound)
			}
		}
	}
}

// TestGreedyInfeasibleIsMinWeight pins why the product needs no fallback
// solver: when not even the lightest assignment fits the budget, the walk
// takes every hull increment and ends each class on its lightest option,
// so the solver's answer is the min-weight assignment — from a fresh
// state, from one that solved the problem before, and as the DP oracle
// finds it.
func TestGreedyInfeasibleIsMinWeight(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := stats.NewRNG(seed)
		for _, p := range []Problem{
			randomProblem(rng, 2+rng.Intn(20), 1+rng.Intn(6)),
			tieHeavyProblem(rng, 2+rng.Intn(20), 1+rng.Intn(6)),
		} {
			// Solve the original problem, then redraw a few classes and
			// force the budget below the lightest assignment.
			var ws SolveState
			if _, err := ws.Solve(p); err != nil {
				t.Fatal(err)
			}
			for k := 1 + rng.Intn(3); k > 0; k-- {
				i := rng.Intn(len(p.Classes))
				for j := range p.Classes[i] {
					p.Classes[i][j] = Option{Cost: float64(rng.Intn(6)), Weight: float64(1 + rng.Intn(5))}
				}
			}
			p.Budget = MinWeight(p) * (0.5 + 0.4*rng.Float64())
			want := minWeightSolution(p)

			persistent, err := ws.Solve(p)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := SolveGreedy(p)
			if err != nil {
				t.Fatal(err)
			}
			dp, err := SolveDP(p, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				name string
				sol  Solution
			}{{"cold", cold}, {"persistent", persistent}, {"dp", dp}} {
				if got.sol.Feasible || !reflect.DeepEqual(got.sol.Choice, want.Choice) {
					t.Fatalf("seed %d: %s answer %v (feasible %v) is not the min-weight assignment %v",
						seed, got.name, got.sol.Choice, got.sol.Feasible, want.Choice)
				}
			}
		}
	}
}
