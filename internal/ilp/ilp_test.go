package ilp

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"tierscape/internal/stats"
)

// bruteForce enumerates every assignment — the ground truth for small
// instances.
func bruteForce(p Problem) Solution {
	n := len(p.Classes)
	best := Solution{Cost: math.Inf(1), Choice: make([]int, n)}
	cur := make([]int, n)
	var rec func(k int, cost, weight float64)
	rec = func(k int, cost, weight float64) {
		if k == n {
			if weight <= p.Budget && cost < best.Cost {
				best.Cost = cost
				best.Weight = weight
				copy(best.Choice, cur)
				best.Feasible = true
			}
			return
		}
		for j, o := range p.Classes[k] {
			cur[k] = j
			rec(k+1, cost+o.Cost, weight+o.Weight)
		}
	}
	rec(0, 0, 0)
	return best
}

// SolveDP solves p by dynamic programming over integer-scaled weights:
// weights are quantized to `buckets` levels of the budget, giving a
// pseudo-polynomial O(classes × options × buckets) exact solution on the
// quantized instance. It is the tests' independent oracle for instances
// too large to enumerate; quantization means its result can exceed the
// true optimum by the rounding granularity, never undercut it.
func SolveDP(p Problem, buckets int) (Solution, error) {
	if err := validate(p); err != nil {
		return Solution{}, err
	}
	if buckets <= 0 {
		buckets = 1000
	}
	if p.Budget <= 0 {
		// Degenerate: only zero-weight options can fit, and the min-weight
		// assignment picks the cheapest of those when they exist.
		return minWeightSolution(p), nil
	}
	scale := func(w float64) int {
		// Round weights UP so the quantized solution never violates the
		// real budget.
		return int(math.Ceil(w / p.Budget * float64(buckets)))
	}

	n := len(p.Classes)
	const inf = math.MaxFloat64
	// dp[b] = min cost to assign the classes processed so far with total
	// quantized weight exactly b.
	dp := make([]float64, buckets+1)
	choicePrev := make([][]int16, n) // per class, chosen option per bucket
	for b := range dp {
		dp[b] = inf
	}
	dp[0] = 0
	for i, opts := range p.Classes {
		next := make([]float64, buckets+1)
		ch := make([]int16, buckets+1)
		for b := range next {
			next[b] = inf
			ch[b] = -1
		}
		for b := 0; b <= buckets; b++ {
			if dp[b] == inf {
				continue
			}
			for j, o := range opts {
				nb := b + scale(o.Weight)
				if nb > buckets {
					continue
				}
				if c := dp[b] + o.Cost; c < next[nb] {
					next[nb] = c
					ch[nb] = int16(j)
				}
			}
		}
		dp = next
		choicePrev[i] = ch
	}
	bestB, bestC := -1, inf
	for b := 0; b <= buckets; b++ {
		if dp[b] < bestC {
			bestC = dp[b]
			bestB = b
		}
	}
	if bestB < 0 {
		// Nothing fits even quantized: the min-weight assignment.
		return minWeightSolution(p), nil
	}
	// Backtrack through the per-class tables.
	sol := Solution{Choice: make([]int, n)}
	b := bestB
	for i := n - 1; i >= 0; i-- {
		j := int(choicePrev[i][b])
		if j < 0 {
			return Solution{}, fmt.Errorf("ilp: DP backtrack failed at class %d", i)
		}
		sol.Choice[i] = j
		o := p.Classes[i][j]
		sol.Cost += o.Cost
		sol.Weight += o.Weight
		b -= scale(o.Weight)
	}
	sol.Feasible = sol.Weight <= p.Budget
	return sol, nil
}

func randomProblem(rng *stats.RNG, nClasses, nOpts int) Problem {
	p := Problem{}
	totalMax := 0.0
	for i := 0; i < nClasses; i++ {
		var c []Option
		for j := 0; j < nOpts; j++ {
			c = append(c, Option{
				Cost:   rng.Float64() * 100,
				Weight: rng.Float64() * 100,
			})
		}
		p.Classes = append(p.Classes, c)
		maxw := 0.0
		for _, o := range c {
			if o.Weight > maxw {
				maxw = o.Weight
			}
		}
		totalMax += maxw
	}
	p.Budget = rng.Float64() * totalMax
	return p
}

func TestGreedyNearOptimal(t *testing.T) {
	rng := stats.NewRNG(7)
	worst := 0.0
	for trial := 0; trial < 100; trial++ {
		p := randomProblem(rng, 10, 4)
		exact := bruteForce(p)
		greedy, err := SolveGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Feasible && !greedy.Feasible {
			t.Fatalf("trial %d: greedy infeasible where exact feasible", trial)
		}
		if !exact.Feasible {
			continue
		}
		if greedy.Weight > p.Budget+1e-9 {
			t.Fatalf("trial %d: greedy violates budget", trial)
		}
		if greedy.Cost < exact.Cost-1e-9 {
			t.Fatalf("trial %d: greedy beat exact?! %v < %v", trial, greedy.Cost, exact.Cost)
		}
		var gap float64
		if exact.Cost > 0 {
			gap = (greedy.Cost - exact.Cost) / exact.Cost
		}
		if gap > worst {
			worst = gap
		}
	}
	// One-class rounding error bounds the greedy; on 10-class problems it
	// should stay within ~30% of optimal, and usually far closer.
	if worst > 0.3 {
		t.Fatalf("greedy worst-case gap %.3f too large", worst)
	}
}

func TestChoiceValidityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		p := randomProblem(rng, 1+rng.Intn(20), 1+rng.Intn(6))
		s, err := SolveGreedy(p)
		if err != nil {
			return false
		}
		if len(s.Choice) != len(p.Classes) {
			return false
		}
		cost, weight := 0.0, 0.0
		for i, j := range s.Choice {
			if j < 0 || j >= len(p.Classes[i]) {
				return false
			}
			cost += p.Classes[i][j].Cost
			weight += p.Classes[i][j].Weight
		}
		if math.Abs(cost-s.Cost) > 1e-6 || math.Abs(weight-s.Weight) > 1e-6 {
			return false
		}
		return s.Feasible == (s.Weight <= p.Budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUnlimitedBudgetPicksMinCost(t *testing.T) {
	p := Problem{
		Classes: [][]Option{
			{{Cost: 5, Weight: 10}, {Cost: 0, Weight: 100}},
			{{Cost: 3, Weight: 10}, {Cost: 1, Weight: 50}},
		},
		Budget: 1e9,
	}
	s, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 1 || s.Choice[0] != 1 || s.Choice[1] != 1 {
		t.Fatalf("unlimited budget: %+v", s)
	}
	if s.Bound != s.Cost {
		t.Fatalf("zero-pressure solution is optimal: bound %v, cost %v", s.Bound, s.Cost)
	}
}

func TestTightBudgetForcesDowngrades(t *testing.T) {
	// Two classes, each: DRAM-ish (cost 0, weight 100) vs CT-ish
	// (cost 10, weight 20). Budget 130 forces exactly one downgrade; the
	// LP relaxation needs only 70 of its 80 weight, so the bound is 8.75.
	p := Problem{
		Classes: [][]Option{
			{{Cost: 0, Weight: 100}, {Cost: 10, Weight: 20}},
			{{Cost: 0, Weight: 100}, {Cost: 10, Weight: 20}},
		},
		Budget: 130,
	}
	s, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Cost != 10 || s.Weight != 120 || s.Bound != 8.75 {
		t.Fatalf("got cost=%v weight=%v bound=%v, want 10,120,8.75", s.Cost, s.Weight, s.Bound)
	}
}

func TestInfeasibleReturnsMinWeight(t *testing.T) {
	p := Problem{
		Classes: [][]Option{{{Cost: 0, Weight: 100}, {Cost: 10, Weight: 50}}},
		Budget:  10,
	}
	s, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Feasible {
		t.Fatal("should be infeasible")
	}
	if s.Weight != 50 {
		t.Fatalf("infeasible answer weight = %v, want min-weight 50", s.Weight)
	}
}

func TestValidation(t *testing.T) {
	if _, err := SolveGreedy(Problem{}); err == nil {
		t.Error("empty problem should fail")
	}
	if _, err := SolveGreedy(Problem{Classes: [][]Option{{}}}); err == nil {
		t.Error("empty class should fail")
	}
	if _, err := SolveGreedy(Problem{Classes: [][]Option{{{Cost: -1, Weight: 1}}}}); err == nil {
		t.Error("negative cost should fail")
	}
	if _, err := SolveGreedy(Problem{Classes: [][]Option{{{Cost: math.NaN(), Weight: 1}}}}); err == nil {
		t.Error("NaN should fail")
	}
}

func TestMinMaxWeight(t *testing.T) {
	p := Problem{
		Classes: [][]Option{
			{{Cost: 0, Weight: 100}, {Cost: 10, Weight: 20}},
			{{Cost: 0, Weight: 50}, {Cost: 5, Weight: 10}},
		},
	}
	if MinWeight(p) != 30 {
		t.Fatalf("MinWeight = %v, want 30", MinWeight(p))
	}
	if MaxWeight(p) != 150 {
		t.Fatalf("MaxWeight = %v, want 150", MaxWeight(p))
	}
}

func TestBudgetSweepMonotone(t *testing.T) {
	// As the budget loosens (α grows), neither the solver's cost nor its
	// LP bound may increase — the knob behaviour of Figure 5/10.
	rng := stats.NewRNG(99)
	p := randomProblem(rng, 12, 5)
	lo, hi := MinWeight(p), MaxWeight(p)
	prev, prevBound := math.Inf(1), math.Inf(1)
	for alpha := 0.0; alpha <= 1.0001; alpha += 0.1 {
		p.Budget = lo + alpha*(hi-lo)
		s, err := SolveGreedy(p)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Feasible {
			t.Fatalf("alpha=%.1f should be feasible", alpha)
		}
		if s.Cost > prev+1e-9 || s.Bound > prevBound+1e-9 {
			t.Fatalf("cost or bound increased as budget loosened: %v -> %v, %v -> %v", prev, s.Cost, prevBound, s.Bound)
		}
		prev, prevBound = s.Cost, s.Bound
	}
}

func TestLargeInstanceGreedyScales(t *testing.T) {
	rng := stats.NewRNG(5)
	p := randomProblem(rng, 5000, 6)
	s, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible && MinWeight(p) <= p.Budget {
		t.Fatal("greedy failed a feasible large instance")
	}
}

func TestSolveTimeNsPositive(t *testing.T) {
	p := Problem{Classes: [][]Option{{{Cost: 1, Weight: 1}}}}
	if SolveTimeNs(p) <= 0 {
		t.Fatal("solver tax must be positive")
	}
}

func TestDPCrossChecksExact(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 50; trial++ {
		p := randomProblem(rng, 2+rng.Intn(8), 2+rng.Intn(4))
		exact := bruteForce(p)
		dp, err := SolveDP(p, 5000)
		if err != nil {
			t.Fatal(err)
		}
		if !exact.Feasible {
			continue
		}
		if dp.Feasible && dp.Weight > p.Budget+1e-9 {
			t.Fatalf("trial %d: DP violates budget", trial)
		}
		// DP is exact on the quantized instance: its cost must be within
		// the quantization slack of the true optimum, and never better.
		if dp.Cost < exact.Cost-1e-9 {
			t.Fatalf("trial %d: DP cost %v beat exact %v", trial, dp.Cost, exact.Cost)
		}
		if dp.Feasible && exact.Cost > 0 {
			gap := (dp.Cost - exact.Cost) / exact.Cost
			if gap > 0.05 {
				t.Fatalf("trial %d: DP gap %.3f too large at 5000 buckets", trial, gap)
			}
		}
	}
}

func TestDPValidationAndDegenerate(t *testing.T) {
	if _, err := SolveDP(Problem{}, 100); err == nil {
		t.Fatal("empty problem accepted")
	}
	// Zero budget: only zero-weight options fit, the min-weight answer.
	p := Problem{Classes: [][]Option{{{Cost: 1, Weight: 0}, {Cost: 0, Weight: 5}}}, Budget: 0}
	s, err := SolveDP(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if s.Feasible && s.Weight > 0 {
		t.Fatalf("zero budget: %+v", s)
	}
}
