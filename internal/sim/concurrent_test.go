package sim

import (
	"reflect"
	"strings"
	"testing"

	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/policy"
	"tierscape/internal/workload"
)

// ptRun executes one standard-mix run (the Fig-7/Fig-10 harness shape:
// Memcached/YCSB on DRAM + NVMM + CT-1 + CT-2) at the given push-thread
// count. Workload and manager are rebuilt per run so every invocation is
// independent and identically seeded.
func ptRun(t *testing.T, mdl model.Model, threads *int) *Result {
	t.Helper()
	wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
	res, err := Run(Config{
		Manager:      standardMix(t, wl),
		Workload:     wl,
		Model:        mdl,
		OpsPerWindow: 4000,
		Windows:      5,
		SampleRate:   Int(20),
		PushThreads:  threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestConcurrentPushThreadsDeterminism is the tentpole contract: the full
// Result — every window record, tier-pages slice, latency summary and
// float sum — must be byte-identical across PushThreads 1, 2 and 8 and
// across repeated runs, even though PT>1 really applies migrations from
// PT goroutines. Runs under -race in CI (the Concurrent suite).
func TestConcurrentPushThreadsDeterminism(t *testing.T) {
	for _, mdl := range []func() model.Model{
		func() model.Model { return &model.Waterfall{Pct: 50} },
		func() model.Model { return &model.Analytical{Alpha: 0.3, ModelName: "AM-TCO"} },
	} {
		name := mdl().Name()
		t.Run(name, func(t *testing.T) {
			base := ptRun(t, mdl(), Int(1))
			if base.Windows[len(base.Windows)-1].Moves == 0 && base.Faults == 0 {
				t.Fatal("run exercised no migrations; determinism test is vacuous")
			}
			for _, threads := range []int{1, 2, 8} {
				got := ptRun(t, mdl(), Int(threads))
				if !reflect.DeepEqual(got, base) {
					t.Fatalf("PushThreads=%d result differs from PushThreads=1:\nPT1: %+v\nPT%d: %+v",
						threads, base, threads, got)
				}
			}
		})
	}
}

// TestConcurrentPushThreadsZeroValue is the pointer-optional regression
// test: nil means "default 2", an explicit 1 is honored as serial (the old
// int field silently rewrote both 0 and 1's intent), and out-of-range
// values are rejected instead of silently patched.
func TestConcurrentPushThreadsZeroValue(t *testing.T) {
	mdl := func() model.Model { return &model.Waterfall{Pct: 50} }
	nilRes := ptRun(t, mdl(), nil)
	two := ptRun(t, mdl(), Int(2))
	if !reflect.DeepEqual(nilRes, two) {
		t.Fatal("nil PushThreads must mean the default of 2")
	}
	one := ptRun(t, mdl(), Int(1))
	if !reflect.DeepEqual(one, two) {
		// Determinism makes PT1 ≡ PT2 anyway; what matters is that an
		// explicit 1 runs (and runs serially) instead of being rewritten.
		t.Fatal("explicit PushThreads=1 must be honored and identical to the default")
	}
	for _, bad := range []int{0, -3} {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		_, err := Run(Config{
			Manager:      standardMix(t, wl),
			Workload:     wl,
			Model:        mdl(),
			OpsPerWindow: 100,
			Windows:      1,
			SampleRate:   Int(20),
			PushThreads:  Int(bad),
		})
		if err == nil || !strings.Contains(err.Error(), "PushThreads") {
			t.Fatalf("PushThreads=%d: want validation error, got %v", bad, err)
		}
	}
}

// TestConcurrentFallbackConflictDeterminism is the conflict-heavy
// counterpart of the push-thread contract: CT-1 is clamped to a sliver of
// pool pages so a full run's demotions pile into a nearly-full compressed
// tier, forcing ErrTierFull fallbacks whose placement decisions couple
// tiers. The full Result must still be deep-equal across PushThreads 1, 2
// and 8. Runs under -race -count=3 in CI (the Concurrent suite).
func TestConcurrentFallbackConflictDeterminism(t *testing.T) {
	const poolLimit = 48 // pool pages; a sliver of the ~3072-page footprint
	conflictRun := func(threads int) (*Result, int64) {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		m := standardMix(t, wl)
		if err := m.SetCompressedTierLimit(mem.TierID(2), poolLimit); err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{
			Manager:      m,
			Workload:     wl,
			Model:        &model.Waterfall{Pct: 75}, // aggressive demotion
			OpsPerWindow: 4000,
			Windows:      5,
			SampleRate:   Int(20),
			PushThreads:  Int(threads),
		})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.CompressedTierStats(mem.TierID(2))
		if err != nil {
			t.Fatal(err)
		}
		return res, st.FullRejects
	}
	base, fullRejects := conflictRun(1)
	if fullRejects == 0 {
		t.Fatal("no ErrTierFull fallbacks occurred; conflict test is vacuous")
	}
	for _, threads := range []int{2, 8} {
		got, gotRejects := conflictRun(threads)
		if gotRejects != fullRejects {
			t.Fatalf("PushThreads=%d: %d full-rejects vs %d at PT1", threads, gotRejects, fullRejects)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("PushThreads=%d result differs from PushThreads=1 under ErrTierFull conflicts:\nPT1: %+v\nPT%d: %+v",
				threads, base, threads, got)
		}
	}
}

// TestConcurrentApplyMovesFallbackConflicts drives applyMoves directly with
// a plan engineered for maximum commit coupling: every region demoted into
// one nearly-full CT (ErrTierFull fallbacks), a second wave re-targeting
// the other CT (duplicate regions → chained commits whose sources depend on
// the first wave's fallback outcomes), and promotions back to DRAM.
// Per-move results, residency, counters and pool stats must match the
// serial apply at every worker count.
func TestConcurrentApplyMovesFallbackConflicts(t *testing.T) {
	collect := func(workers int) ([]moveOutcome, []int64, mem.Counters, int64) {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		m := standardMix(t, wl)
		ct1, ct2 := mem.TierID(2), mem.TierID(3)
		if err := m.SetCompressedTierLimit(ct1, 32); err != nil {
			t.Fatal(err)
		}
		var moves []policy.Move
		for r := int64(0); r < m.NumRegions(); r++ {
			moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: ct1})
		}
		for r := int64(0); r < m.NumRegions(); r += 2 {
			moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: ct2})
		}
		for r := int64(0); r < m.NumRegions(); r += 3 {
			moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: mem.DRAMTier})
		}
		results, err := applyMoves(m, moves, make([]mem.MigrationScratch, workers), workers, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.CompressedTierStats(ct1)
		if err != nil {
			t.Fatal(err)
		}
		return results, m.TierPages(), m.Counters(), st.FullRejects
	}
	baseRes, basePages, baseCtr, baseFull := collect(1)
	if baseFull == 0 {
		t.Fatal("plan forced no ErrTierFull fallbacks; conflict test is vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		res, pages, ctr, full := collect(workers)
		if !reflect.DeepEqual(res, baseRes) {
			t.Fatalf("workers=%d: per-move results differ from serial", workers)
		}
		if !reflect.DeepEqual(pages, basePages) {
			t.Fatalf("workers=%d: residency differs: %v vs %v", workers, pages, basePages)
		}
		if ctr != baseCtr || full != baseFull {
			t.Fatalf("workers=%d: counters differ: %+v/%d vs %+v/%d",
				workers, ctr, full, baseCtr, baseFull)
		}
	}
}

// TestConcurrentApplyMovesRepeatable hammers the worker pool directly:
// the same plan applied at different worker counts on identically-built
// managers yields identical per-move results in plan order.
func TestConcurrentApplyMovesRepeatable(t *testing.T) {
	collect := func(workers int) ([]moveOutcome, []int64) {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		m := standardMix(t, wl)
		tiers := m.Tiers()
		// A synthetic plan: demote alternating regions into the two
		// compressed tiers, promote a third of them back — enough traffic
		// to cover the generic, same-codec and skip paths.
		var moves []policy.Move
		for r := int64(0); r < m.NumRegions(); r++ {
			moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: tiers[2+r%2].ID})
		}
		for r := int64(0); r < m.NumRegions(); r += 3 {
			moves = append(moves, policy.Move{Region: mem.RegionID(r), Dest: mem.DRAMTier})
		}
		results, err := applyMoves(m, moves, make([]mem.MigrationScratch, workers), workers, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		return results, m.TierPages()
	}
	baseRes, basePages := collect(1)
	for _, workers := range []int{2, 4, 8} {
		res, pages := collect(workers)
		if !reflect.DeepEqual(res, baseRes) {
			t.Fatalf("workers=%d: per-move results differ from serial", workers)
		}
		if !reflect.DeepEqual(pages, basePages) {
			t.Fatalf("workers=%d: tier residency differs from serial: %v vs %v",
				workers, pages, basePages)
		}
	}
}

// TestConcurrentApplyMovesCommitBatch extends the determinism contract to
// the page-granular commit pipeline: a fallback-scarred plan (wave 1
// leaves regions with mixed residency by clamping CT-1) applied with
// sub-region commit batches at PushThreads 2 and 8 must match the serial
// whole-region apply exactly — per-move results, residency and counters —
// for every batch size. The PT-8 small-batch run doubles as the
// scheduler-stats smoke: it must actually exercise early stream handoffs
// (PartialReleases > 0) and land more commit chunks than jobs. Runs under
// -race -count=3 in CI (the Concurrent suite).
func TestConcurrentApplyMovesCommitBatch(t *testing.T) {
	collect := func(workers, batch int, tr *applyTrace) ([]moveOutcome, []int64, mem.Counters) {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 8*1024, 1)
		m := standardMix(t, wl)
		ct1, ct2 := mem.TierID(2), mem.TierID(3)
		if err := m.SetCompressedTierLimit(ct1, 32); err != nil {
			t.Fatal(err)
		}
		// Wave 1 (whole-region, serial): pile every region into the
		// clamped CT-1 so its overflow falls back and at least one region
		// ends up with pages split across CT-1 and DRAM.
		var wave1 []policy.Move
		for r := int64(0); r < m.NumRegions(); r++ {
			wave1 = append(wave1, policy.Move{Region: mem.RegionID(r), Dest: ct1})
		}
		if _, err := applyMoves(m, wave1, make([]mem.MigrationScratch, 1), 1, 0, nil); err != nil {
			t.Fatal(err)
		}
		// Wave 2 (under test): each region appears once — unchained jobs,
		// the batch path — and the mixed-residency regions finish their
		// CT-1 pages before their DRAM tail, releasing CT-1's stream
		// early.
		var wave2 []policy.Move
		for r := int64(0); r < m.NumRegions(); r++ {
			wave2 = append(wave2, policy.Move{Region: mem.RegionID(r), Dest: ct2})
		}
		results, err := applyMoves(m, wave2, make([]mem.MigrationScratch, workers), workers, batch, tr)
		if err != nil {
			t.Fatal(err)
		}
		return results, m.TierPages(), m.Counters()
	}
	baseRes, basePages, baseCtr := collect(1, 0, nil)
	for _, workers := range []int{2, 8} {
		for _, batch := range []int{4, 32} {
			res, pages, ctr := collect(workers, batch, nil)
			if !reflect.DeepEqual(res, baseRes) {
				t.Fatalf("workers=%d batch=%d: per-move results differ from serial whole-region", workers, batch)
			}
			if !reflect.DeepEqual(pages, basePages) {
				t.Fatalf("workers=%d batch=%d: residency differs: %v vs %v", workers, batch, pages, basePages)
			}
			if ctr != baseCtr {
				t.Fatalf("workers=%d batch=%d: counters differ: %+v vs %+v", workers, batch, ctr, baseCtr)
			}
		}
	}
	// Scheduler-stats smoke at PT 8, batch 4: the plan must genuinely
	// exercise the page-granular pipeline, not vacuously pass DeepEqual.
	tr := newApplyTrace(1, 8)
	res, _, _ := collect(8, 4, tr)
	if !reflect.DeepEqual(res, baseRes) {
		t.Fatal("traced batched apply diverged from serial")
	}
	if tr.sched.PartialReleases == 0 {
		t.Fatal("PartialReleases = 0: the plan produced no early stream handoff; smoke is vacuous")
	}
	if tr.sched.BatchCommits <= int64(len(baseRes)) {
		t.Fatalf("BatchCommits = %d over %d jobs: sub-region chunking did not happen",
			tr.sched.BatchCommits, len(baseRes))
	}
}
