package sim

import (
	"errors"
	"reflect"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/policy"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

func ts(ids ...mem.TierID) mem.TierSet {
	var s mem.TierSet
	for _, id := range ids {
		s = s.With(id)
	}
	return s
}

func noPrev(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = -1
	}
	return p
}

// TestConcurrentCommitSchedulerTargetedWakeup is the thundering-herd
// regression: the old turnstile's advance() broadcast to every waiting
// worker on every ticket. The scheduler must instead wake only the job a
// completion makes eligible: with three jobs serialized on one tier,
// finishing job 0 readies job 1 but must NOT touch job 2.
func TestConcurrentCommitSchedulerTargetedWakeup(t *testing.T) {
	fps := []mem.TierSet{ts(1), ts(1), ts(1)}
	s := newCommitScheduler(2, fps, noPrev(3), true)
	if !s.eligibleNow(0) {
		t.Fatal("job 0 heads the only stream; must be eligible at init")
	}
	if s.eligibleNow(1) || s.eligibleNow(2) {
		t.Fatal("jobs 1 and 2 must wait behind job 0")
	}
	if got := s.Stats().Wakeups; got != 1 {
		t.Fatalf("init wakeups = %d, want 1 (job 0 only)", got)
	}
	s.done(0)
	if !s.eligibleNow(1) {
		t.Fatal("job 1 must become eligible when job 0 completes")
	}
	if s.eligibleNow(2) {
		t.Fatal("job 2 woken early: completion must signal only the next eligible committer")
	}
	if got := s.Stats().Wakeups; got != 2 {
		t.Fatalf("wakeups after done(0) = %d, want 2: exactly one signal per eligible job, no broadcast", got)
	}
	s.done(1)
	if !s.eligibleNow(2) {
		t.Fatal("job 2 must become eligible when job 1 completes")
	}
	st := s.Stats()
	if st.Wakeups != 3 {
		t.Fatalf("total wakeups = %d, want one per job (3)", st.Wakeups)
	}
	// Per-tier attribution: all three jobs were sequenced — and woken — by
	// tier 1's stream.
	if st.Jobs != 3 || len(st.TierStreams) != 2 {
		t.Fatalf("Stats jobs/streams = %d/%d, want 3/2", st.Jobs, len(st.TierStreams))
	}
	if st.TierStreams[1].Jobs != 3 || st.TierStreams[1].Wakeups != 3 {
		t.Fatalf("tier 1 stream = %+v, want 3 jobs and 3 wakeups", st.TierStreams[1])
	}
	if st.TierStreams[0].Jobs != 0 || st.TierStreams[0].Wakeups != 0 {
		t.Fatalf("tier 0 stream = %+v, want untouched", st.TierStreams[0])
	}
	if st.BlockedAwaits != 0 || st.StallNs != 0 {
		t.Fatalf("no await ever blocked, but BlockedAwaits=%d StallNs=%d", st.BlockedAwaits, st.StallNs)
	}
}

// TestConcurrentCommitSchedulerDisjointOverlap: commits whose footprints
// share no tier are all eligible immediately — the whole point of the
// conflict-aware scheduler.
func TestConcurrentCommitSchedulerDisjointOverlap(t *testing.T) {
	fps := []mem.TierSet{ts(2), ts(3), ts(4), 0}
	s := newCommitScheduler(5, fps, noPrev(4), false)
	for i := range fps {
		if !s.eligibleNow(i) {
			t.Fatalf("job %d has a disjoint (or empty) footprint; must be eligible at init", i)
		}
	}
	// Out-of-order completion of disjoint jobs must be accepted.
	s.done(2)
	s.done(0)
	s.done(3)
	s.done(1)
}

// TestConcurrentCommitSchedulerPartialOverlap: a job waits for exactly the
// streams in its footprint — an overlap on one tier orders two jobs while
// a third, disjoint job proceeds.
func TestConcurrentCommitSchedulerPartialOverlap(t *testing.T) {
	fps := []mem.TierSet{ts(1, 2), ts(2, 3), ts(4)}
	s := newCommitScheduler(5, fps, noPrev(3), false)
	if !s.eligibleNow(0) || !s.eligibleNow(2) {
		t.Fatal("jobs 0 and 2 must start immediately")
	}
	if s.eligibleNow(1) {
		t.Fatal("job 1 shares tier 2 with job 0 and must wait")
	}
	s.done(2) // disjoint completion must not unblock job 1
	if s.eligibleNow(1) {
		t.Fatal("disjoint completion unblocked job 1")
	}
	s.done(0)
	if !s.eligibleNow(1) {
		t.Fatal("job 1 must run after job 0 releases tier 2")
	}
}

// TestConcurrentCommitSchedulerRegionChain: moves of the same region are
// ordered by the predecessor edge even when their tier footprints are
// disjoint (region page-table state is order-sensitive on its own).
func TestConcurrentCommitSchedulerRegionChain(t *testing.T) {
	fps := []mem.TierSet{ts(2), ts(3)}
	prev := []int{-1, 0}
	s := newCommitScheduler(4, fps, prev, true)
	if !s.eligibleNow(0) {
		t.Fatal("job 0 must be eligible")
	}
	if s.eligibleNow(1) {
		t.Fatal("job 1 re-addresses job 0's region and must wait despite disjoint tiers")
	}
	s.done(0)
	if !s.eligibleNow(1) {
		t.Fatal("job 1 must run once its region predecessor commits")
	}
	// Job 1's completing grant came from the region chain, not a tier
	// stream, so no tier sequencer may claim its wakeup.
	st := s.Stats()
	var tierWakeups int
	for _, tsw := range st.TierStreams {
		tierWakeups += tsw.Wakeups
	}
	if tierWakeups != 1 {
		t.Fatalf("tier-attributed wakeups = %d, want 1 (job 0 only; job 1's came from the region chain)", tierWakeups)
	}
}

// TestConcurrentPlanFootprints checks the schedule-time analysis on a real
// manager: disjoint demotions, chained duplicate regions, and the
// fault-fallback coupling widening for chained moves.
func TestConcurrentPlanFootprints(t *testing.T) {
	wl := workload.Memcached(workload.DriverYCSB, 1024, 4*mem.RegionPages, 1)
	m := standardMix(t, wl)
	ct1, ct2 := mem.TierID(2), mem.TierID(3)
	moves := []policy.Move{
		{Region: 0, Dest: ct1},
		{Region: 1, Dest: ct2},
		{Region: 0, Dest: ct2}, // duplicate region: must chain behind move 0
		{Region: 2, Dest: mem.DRAMTier},
	}
	fps, prev := planFootprints(m, moves)
	if want := []int{-1, -1, 0, -1}; !equalInts(prev, want) {
		t.Fatalf("prev = %v, want %v", prev, want)
	}
	// DRAM and NVMM are unbounded here, so demotions to distinct CTs are
	// disjoint.
	if fps[0] != ts(ct1) || fps[1] != ts(ct2) {
		t.Fatalf("demotion footprints = %b, %b; want {CT1}, {CT2}", fps[0], fps[1])
	}
	if fps[0].Overlaps(fps[1]) {
		t.Fatal("disjoint demotions must not overlap")
	}
	// The chained move inherits its predecessor's footprint and adds its
	// own destination.
	if !fps[2].Contains(ct1) || !fps[2].Contains(ct2) {
		t.Fatalf("chained footprint = %b, want ⊇ {CT1, CT2}", fps[2])
	}
	// All-DRAM region promoted to DRAM: skip-only, empty footprint.
	if fps[3] != 0 {
		t.Fatalf("skip-only footprint = %b, want empty", fps[3])
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConcurrentApplyMovesPrepareError: a move with an invalid destination
// must surface its error deterministically while the rest of the plan
// completes, at any worker count.
func TestConcurrentApplyMovesPrepareError(t *testing.T) {
	for _, workers := range []int{2, 8} {
		wl := workload.Memcached(workload.DriverYCSB, 1024, 4*mem.RegionPages, 1)
		m := standardMix(t, wl)
		moves := []policy.Move{
			{Region: 0, Dest: mem.TierID(2)},
			{Region: 1, Dest: mem.TierID(99)}, // no such tier
			{Region: 2, Dest: mem.TierID(3)},
		}
		_, err := applyMoves(m, moves, make([]mem.MigrationScratch, workers), workers, 0, nil)
		if !errors.Is(err, mem.ErrNoSuchTier) {
			t.Fatalf("workers=%d: err = %v, want ErrNoSuchTier", workers, err)
		}
	}
}

// TestConcurrentCommitSchedulerPartialRelease: the page-granular early
// handoff. Job 0 holds {CT1, CT2}; releasing CT1 early must make the
// job-1 CT1-successor eligible while the CT2-successor keeps waiting,
// re-releasing must be a no-op, and done must hand over only the
// remainder.
func TestConcurrentCommitSchedulerPartialRelease(t *testing.T) {
	ct1, ct2 := mem.TierID(2), mem.TierID(3)
	fps := []mem.TierSet{ts(ct1, ct2), ts(ct1), ts(ct2)}
	s := newCommitScheduler(4, fps, noPrev(3), false)
	if !s.eligibleNow(0) || s.eligibleNow(1) || s.eligibleNow(2) {
		t.Fatal("init: only job 0 may be eligible")
	}
	s.release(0, ts(ct1))
	if !s.eligibleNow(1) {
		t.Fatal("releasing CT1 early must unblock the CT1 successor")
	}
	if s.eligibleNow(2) {
		t.Fatal("CT2 successor unblocked by a CT1 release")
	}
	s.release(0, ts(ct1)) // already released: must be a no-op
	s.release(0, 0)       // empty set: must be a no-op
	if got := s.Stats().PartialReleases; got != 1 {
		t.Fatalf("PartialReleases = %d, want 1 (re-releases must not count)", got)
	}
	if next := s.done(0); next != 2 {
		t.Fatalf("done(0) = %d, want 2 (the CT2 successor it just unblocked)", next)
	}
	if !s.eligibleNow(2) {
		t.Fatal("CT2 successor must be eligible after done")
	}
}

// TestConcurrentCommitSchedulerDoneSteal: done reports the lowest job a
// completion made eligible — the direct-claim steal target — and -1 when
// nothing became eligible.
func TestConcurrentCommitSchedulerDoneSteal(t *testing.T) {
	ct1, ct2 := mem.TierID(2), mem.TierID(3)
	fps := []mem.TierSet{ts(ct1, ct2), ts(ct2), ts(ct1)}
	s := newCommitScheduler(4, fps, noPrev(3), false)
	// done(0) releases both streams; jobs 1 and 2 become eligible and the
	// lowest (1) is the steal target.
	if next := s.done(0); next != 1 {
		t.Fatalf("done(0) = %d, want 1", next)
	}
	if next := s.done(1); next != -1 {
		t.Fatalf("done(1) = %d, want -1 (job 2 was already eligible)", next)
	}
	if next := s.done(2); next != -1 {
		t.Fatalf("done(2) = %d, want -1 (no successors)", next)
	}
	// A region-chain grant is a steal target too.
	s2 := newCommitScheduler(4, []mem.TierSet{ts(ct1), ts(ct2)}, []int{-1, 0}, false)
	if next := s2.done(0); next != 1 {
		t.Fatalf("chain done(0) = %d, want 1", next)
	}
}

// TestDispatchOrderTopological: the stall-aware dispatch permutation is
// deterministic, complete, and topological — every job appears after its
// stream predecessors and region predecessor.
func TestDispatchOrderTopological(t *testing.T) {
	ct1, ct2 := mem.TierID(2), mem.TierID(3)
	fps := []mem.TierSet{ts(ct1), ts(ct1), ts(ct2), ts(ct1, ct2), 0, ts(ct2)}
	prev := []int{-1, -1, -1, -1, -1, 2}
	order := dispatchOrder(fps, prev)
	pos := make([]int, len(fps))
	seen := make([]bool, len(fps))
	for k, i := range order {
		if i < 0 || i >= len(fps) || seen[i] {
			t.Fatalf("order %v is not a permutation", order)
		}
		seen[i] = true
		pos[i] = k
	}
	// Stream predecessors: for each tier, jobs in ascending index order.
	last := map[mem.TierID]int{}
	for i, fp := range fps {
		for _, tier := range []mem.TierID{ct1, ct2} {
			if !fp.Contains(tier) {
				continue
			}
			if j, ok := last[tier]; ok && pos[j] > pos[i] {
				t.Fatalf("job %d dispatched before its tier-%d predecessor %d: %v", i, tier, j, order)
			}
			last[tier] = i
		}
		if j := prev[i]; j >= 0 && pos[j] > pos[i] {
			t.Fatalf("job %d dispatched before its region predecessor %d: %v", i, j, order)
		}
	}
	// Depth-0 jobs head the order: 0 and 2 (first in their streams), 4
	// (empty footprint, primary tier 64 sorts it after contended jobs).
	if want := []int{0, 2, 4}; !equalInts(order[:3], want) {
		t.Fatalf("depth-0 prefix = %v, want %v", order[:3], want)
	}
}

// TestConcurrentPlanFootprintsInvalidMove: an invalid move gets an empty
// footprint — it fails identically at prepare time regardless of
// scheduling, so it must be eligible immediately and impose no ordering
// on valid moves.
func TestConcurrentPlanFootprintsInvalidMove(t *testing.T) {
	wl := workload.Memcached(workload.DriverYCSB, 1024, 4*mem.RegionPages, 1)
	m := standardMix(t, wl)
	moves := []policy.Move{
		{Region: 0, Dest: mem.TierID(2)},
		{Region: 1, Dest: mem.TierID(99)}, // no such tier
		{Region: 2, Dest: mem.TierID(2)},
	}
	fps, prev := planFootprints(m, moves)
	if fps[1] != 0 {
		t.Fatalf("invalid move footprint = %b, want empty", fps[1])
	}
	s := newCommitScheduler(len(m.Tiers()), fps, prev, false)
	if !s.eligibleNow(1) {
		t.Fatal("invalid move must commit (fail) immediately, not wait in a stream")
	}
	if s.eligibleNow(2) {
		t.Fatal("job 2 shares CT1 with job 0 and must wait — the invalid move must not have consumed a stream slot")
	}
}

// TestConcurrentPlanFootprintsEmptyPredecessor: a region chain whose
// first move is skip-only (empty footprint) still orders the second move
// behind it via the predecessor edge, and the successor's footprint is
// widened with the fallback coupling set.
func TestConcurrentPlanFootprintsEmptyPredecessor(t *testing.T) {
	wl := workload.Memcached(workload.DriverYCSB, 1024, 4*mem.RegionPages, 1)
	m := standardMix(t, wl)
	moves := []policy.Move{
		{Region: 0, Dest: mem.DRAMTier}, // all-DRAM region: skip-only, empty fp
		{Region: 0, Dest: mem.TierID(2)},
	}
	fps, prev := planFootprints(m, moves)
	if fps[0] != 0 {
		t.Fatalf("skip-only footprint = %b, want empty", fps[0])
	}
	if prev[1] != 0 {
		t.Fatalf("prev[1] = %d, want 0", prev[1])
	}
	want := ts(mem.TierID(2)).Union(m.FaultFallbackSet())
	if fps[1] != want {
		t.Fatalf("chained footprint = %b, want %b", fps[1], want)
	}
	s := newCommitScheduler(len(m.Tiers()), fps, prev, false)
	if !s.eligibleNow(0) {
		t.Fatal("empty-footprint head must be eligible")
	}
	if s.eligibleNow(1) {
		t.Fatal("chained move must wait for its empty-footprint predecessor")
	}
	if next := s.done(0); next != 1 || !s.eligibleNow(1) {
		t.Fatalf("done(0) = %d and eligible(1) = %v; want the chain grant to flow", next, s.eligibleNow(1))
	}
}

// TestConcurrentPlanFootprintsManyTiers: beyond TierSet's 64-tier limit
// the analysis degrades to full serialization — every job shares one
// artificial DRAM stream, region chains are still tracked, and the apply
// engine must therefore also refuse sub-region batching (its Released
// masks carry real per-page footprints the artificial stream knows
// nothing about). The end-to-end half of the guarantee is that a batched
// parallel apply on a >64-tier manager still matches a serial one.
func TestConcurrentPlanFootprintsManyTiers(t *testing.T) {
	build := func() *mem.Manager {
		t.Helper()
		cts := make([]ztier.Config, 63) // 2 BA + 63 CTs = 65 tiers
		for i := range cts {
			cts[i] = ztier.CT1()
		}
		m, err := mem.NewManager(mem.Config{
			NumPages:        4 * mem.RegionPages,
			Content:         corpus.NewGenerator(corpus.Dickens, 7),
			ByteTiers:       []media.Kind{media.NVMM},
			CompressedTiers: cts,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := build()
	if got := len(m.Tiers()); got != 65 {
		t.Fatalf("built %d tiers, want 65", got)
	}
	moves := []policy.Move{
		{Region: 0, Dest: mem.TierID(2)},
		{Region: 1, Dest: mem.TierID(64)},
		{Region: 0, Dest: mem.TierID(3)},
	}
	fps, prev := planFootprints(m, moves)
	want := mem.TierSet(0).With(mem.DRAMTier)
	for i, fp := range fps {
		if fp != want {
			t.Fatalf("fps[%d] = %b, want the shared serialization stream %b", i, fp, want)
		}
	}
	if wantPrev := []int{-1, -1, 0}; !equalInts(prev, wantPrev) {
		t.Fatalf("prev = %v, want %v", prev, wantPrev)
	}
	s := newCommitScheduler(len(m.Tiers()), fps, prev, false)
	if !s.eligibleNow(0) || s.eligibleNow(1) || s.eligibleNow(2) {
		t.Fatal("shared stream must admit only job 0 at init")
	}
	// End to end: a batched, parallel apply on an identically built
	// manager must match the serial whole-region apply byte for byte —
	// the engine silently disables batching above 64 tiers.
	serial, err := applyMoves(build(), moves, make([]mem.MigrationScratch, 1), 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := applyMoves(m, moves, make([]mem.MigrationScratch, 3), 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, batched) {
		t.Fatalf("batched >64-tier apply diverged: %+v vs %+v", batched, serial)
	}
}
