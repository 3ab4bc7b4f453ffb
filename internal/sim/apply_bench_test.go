// Benchmarks for the migration apply engine (applyMoves) across plan
// shapes and push-thread counts — a microscope for the apply phase alone;
// the numbers a PR is judged on come from the ledger in bench/.
//
// Each iteration is a stationary round trip — a demote wave into the
// compressed tiers followed by a promote wave back to DRAM — so the
// manager returns to its initial placement and every iteration does
// identical work.
package sim

import (
	"fmt"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/policy"
	"tierscape/internal/ztier"
)

const benchRegions = 16

// benchManager builds DRAM + NVMM + numCTs compressed tiers (C1..Ck of the
// characterization catalog: lz4/lzo only, so compression compute doesn't
// swamp the commit ordering under measurement). With rejects, every fourth
// page is incompressible (corpus.Mixed), so every demoted span has pages
// refused at commit and placed back.
func benchManager(b *testing.B, numCTs int, rejects bool) *mem.Manager {
	b.Helper()
	cts := make([]ztier.Config, numCTs)
	for i := range cts {
		cts[i] = ztier.Characterization(i + 1)
	}
	content := corpus.Dickens
	if rejects {
		content = corpus.Mixed
	}
	m, err := mem.NewManager(mem.Config{
		NumPages:        benchRegions * mem.RegionPages,
		Content:         corpus.NewGenerator(content, 7),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: cts,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchPlan is one demote wave; the promote wave returns every region to
// DRAM so iterations are stationary.
type benchPlan struct {
	name    string
	numCTs  int
	rejects bool
	demote  func(numCTs int) []policy.Move
}

func benchPlans() []benchPlan {
	spread := func(numCTs int) []policy.Move {
		moves := make([]policy.Move, benchRegions)
		for r := range moves {
			moves[r] = policy.Move{Region: mem.RegionID(r), Dest: mem.TierID(2 + r%numCTs)}
		}
		return moves
	}
	single := func(int) []policy.Move {
		moves := make([]policy.Move, benchRegions)
		for r := range moves {
			moves[r] = policy.Move{Region: mem.RegionID(r), Dest: mem.TierID(2)}
		}
		return moves
	}
	return []benchPlan{
		// Every region demotes to a different CT: no two commits touch the
		// same pool, the shape where ordering them costs the most.
		{name: "disjoint", numCTs: 8, demote: spread},
		// Every region demotes to ONE CT: every commit contends for it.
		{name: "hot", numCTs: 8, demote: single},
		// Every region to ONE CT with a page in four incompressible:
		// fallback placements inside every span, the conflict-heaviest
		// realistic shape.
		{name: "fallback", numCTs: 8, rejects: true, demote: single},
		// Skewed destinations: ~70% of regions demote to one hot CT, the
		// rest spread over the others — the shape a Zipfian working set
		// hands the planner. Drawn from a fixed LCG so the plan is
		// identical across runs.
		{name: "mixed", numCTs: 8, demote: mixedPlan},
	}
}

// mixedPlan sends ~70% of regions to CT-1 and scatters the rest across
// the remaining CTs, using a deterministic LCG stream.
func mixedPlan(numCTs int) []policy.Move {
	moves := make([]policy.Move, benchRegions)
	x := uint64(0x9e3779b97f4a7c15)
	for r := range moves {
		x = x*6364136223846793005 + 1442695040888963407
		dest := mem.TierID(2) // the hot CT
		if x>>32%10 >= 7 {    // ~30%: spread over CT-2..CT-k
			dest = mem.TierID(3 + int(x>>16)%(numCTs-1))
		}
		moves[r] = policy.Move{Region: mem.RegionID(r), Dest: dest}
	}
	return moves
}

func promotePlan() []policy.Move {
	moves := make([]policy.Move, benchRegions)
	for r := range moves {
		moves[r] = policy.Move{Region: mem.RegionID(r), Dest: mem.DRAMTier}
	}
	return moves
}

// BenchmarkApplyMoves measures one window round trip (demote wave +
// promote wave) per iteration: plan × push threads. applyMoves runs
// untraced (nil *applyTrace), the production default.
func BenchmarkApplyMoves(b *testing.B) {
	// As in a Stepper, the push threads' scratch outlives the windows.
	scratch := make([]mem.MigrationScratch, 8)
	for _, plan := range benchPlans() {
		for _, pt := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("plan=%s/pt=%d", plan.name, pt), func(b *testing.B) {
				m := benchManager(b, plan.numCTs, plan.rejects)
				demote := plan.demote(plan.numCTs)
				promote := promotePlan()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, wave := range [][]policy.Move{demote, promote} {
						if _, err := applyMoves(m, wave, scratch, pt, nil); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
