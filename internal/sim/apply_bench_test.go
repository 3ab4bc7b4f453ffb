// Benchmarks for the migration apply engine: the conflict-aware commit
// scheduler (applyMoves) against the retired global turnstile
// (applyMovesTurnstile below, kept verbatim as the baseline), across plan
// shapes and push-thread counts. Results are recorded in BENCH_apply.json
// at the repo root.
//
// Each iteration is a stationary round trip — a demote wave into the
// compressed tiers followed by a promote wave back to DRAM — so the
// manager returns to its initial placement and every iteration does
// identical work.
package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
// swamp the scheduling effect under measurement). ctLimit > 0 clamps the
// first CT's pool to force ErrTierFull fallbacks.
func benchManager(b *testing.B, numCTs, ctLimit int) *mem.Manager {
	b.Helper()
	cts := make([]ztier.Config, numCTs)
	for i := range cts {
		cts[i] = ztier.Characterization(i + 1)
	}
	m, err := mem.NewManager(mem.Config{
		NumPages:        benchRegions * mem.RegionPages,
		Content:         corpus.NewGenerator(corpus.Dickens, 7),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: cts,
	})
	if err != nil {
		b.Fatal(err)
	}
	if ctLimit > 0 {
		if err := m.SetCompressedTierLimit(mem.TierID(2), ctLimit); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

// benchPlan is one demote wave; the promote wave returns every region to
// DRAM so iterations are stationary.
type benchPlan struct {
	name    string
	numCTs  int
	ctLimit int
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
		// Every region demotes to a different CT: footprints are pairwise
		// disjoint, the scheduler's best case and the turnstile's worst.
		{name: "disjoint", numCTs: 8, demote: spread},
		// Every region demotes to ONE CT: fully serialized either way; the
		// scheduler must not lose to the turnstile here.
		{name: "hot", numCTs: 8, demote: single},
		// Clamped first CT: every commit risks ErrTierFull fallback, the
		// conflict-heaviest realistic shape.
		{name: "fallback", numCTs: 8, ctLimit: 64, demote: single},
		// Skewed destinations: ~70% of regions demote to one hot CT, the
		// rest spread over the others — the shape a Zipfian working set
		// hands the planner. Drawn from a fixed LCG so the plan is
		// identical across runs and implementations.
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

type applyFunc func(*mem.Manager, []policy.Move, int) error

// BenchmarkApplyMoves measures one window round trip (demote wave +
// promote wave) per iteration: plan × implementation × push threads.
// applyMoves runs untraced (nil *applyTrace) — the production default and
// the configuration the zero-overhead acceptance numbers are taken from.
func BenchmarkApplyMoves(b *testing.B) {
	// As in a Stepper, the push threads' scratch outlives the windows.
	scratch := make([]mem.MigrationScratch, 16)
	impls := []struct {
		name  string
		apply applyFunc
	}{
		{"sched", func(m *mem.Manager, mv []policy.Move, pt int) error {
			_, err := applyMoves(m, mv, scratch, pt, 0, nil)
			return err
		}},
		// Page-granular commits: 32-page chunks with early per-tier stream
		// release (the -commit-batch knob). Results are byte-identical to
		// whole-region sched; only the wall-clock shape differs.
		{"sched_b32", func(m *mem.Manager, mv []policy.Move, pt int) error {
			_, err := applyMoves(m, mv, scratch, pt, 32, nil)
			return err
		}},
		{"turnstile", func(m *mem.Manager, mv []policy.Move, pt int) error {
			_, err := applyMovesTurnstile(m, mv, pt)
			return err
		}},
	}
	for _, plan := range benchPlans() {
		for _, impl := range impls {
			for _, pt := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("plan=%s/impl=%s/pt=%d", plan.name, impl.name, pt)
				b.Run(name, func(b *testing.B) {
					m := benchManager(b, plan.numCTs, plan.ctLimit)
					demote := plan.demote(plan.numCTs)
					promote := promotePlan()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := impl.apply(m, demote, pt); err != nil {
							b.Fatal(err)
						}
						if err := impl.apply(m, promote, pt); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkApplyMovesSequencerOverhead isolates the pure synchronization
// cost per commit — no migration work — so the scheduling structures can
// be compared without megabytes of compression compute drowning them out:
// `workers` goroutines drain a jobs-long plan, each job doing only the
// admit/complete handshake. Footprints alternate across 8 tiers (the
// disjoint shape). The turnstile broadcast wakes every waiting worker on
// every commit; the scheduler signals one channel per newly-eligible job.
func BenchmarkApplyMovesSequencerOverhead(b *testing.B) {
	const jobs = 4096
	fps := make([]mem.TierSet, jobs)
	for i := range fps {
		fps[i] = mem.TierSet(0).With(mem.TierID(2 + i%8))
	}
	prev := make([]int, jobs)
	for i := range prev {
		prev[i] = -1
	}
	run := func(admit func(i int), complete func(i int), workers int) {
		var next atomic.Int64
		next.Store(-1)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= jobs {
						return
					}
					admit(i)
					complete(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, pt := range []int{2, 8} {
		b.Run(fmt.Sprintf("impl=sched/pt=%d", pt), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := newCommitScheduler(10, fps, prev, false)
				run(s.await, func(i int) { s.done(i) }, pt)
			}
		})
		b.Run(fmt.Sprintf("impl=turnstile/pt=%d", pt), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ts := newTurnstile()
				run(ts.await, func(int) { ts.advance() }, pt)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Baseline: the retired global ordered-commit turnstile, verbatim from the
// previous apply engine. Lives only in this benchmark so regressions
// against it stay measurable.

// turnstile admits goroutines strictly in ticket order: await(i) blocks
// until advance has been called i times.
type turnstile struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

func newTurnstile() *turnstile {
	t := &turnstile{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *turnstile) await(i int) {
	t.mu.Lock()
	for t.next != i {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *turnstile) advance() {
	t.mu.Lock()
	t.next++
	t.mu.Unlock()
	t.cond.Broadcast()
}

// applyMovesTurnstile is the previous applyMoves: commits forced into
// ascending job-index order behind a single global turnstile, per-move
// buffers drawn from the shared pool.
func applyMovesTurnstile(m *mem.Manager, moves []policy.Move, workers int) ([]mem.MigrationResult, error) {
	n := len(moves)
	results := make([]mem.MigrationResult, n)
	if n == 0 {
		return results, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: fused prepare+commit per region, no pool.
		for i, mv := range moves {
			mr, err := migrateRegion(m, mv.Region, mv.Dest, nil)
			if err != nil {
				return nil, err
			}
			results[i] = mr
		}
		return results, nil
	}
	errs := make([]error, n)
	var nextJob atomic.Int64
	nextJob.Store(-1)
	ts := newTurnstile()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextJob.Add(1))
				if i >= n {
					return
				}
				pr, err := m.PrepareRegionMigration(moves[i].Region, moves[i].Dest)
				// Commit in strict job order; every job must take its turn
				// (and advance) even after a prepare error, or later jobs
				// would wait forever.
				ts.await(i)
				if err == nil {
					var mr mem.MigrationResult
					mr, err = m.CommitRegionMigration(pr)
					if errors.Is(err, mem.ErrTierFull) {
						err = nil
					}
					results[i] = mr
				}
				ts.advance()
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
