// Prepare/commit suite: what a PreparedRegion and its MigrationScratch
// promise a push thread — buffers, codec state and the region value come
// back for the next move, a prepared region commits exactly once, and
// prepare + commit lands what moving the region page by page lands,
// ErrTierFull fallbacks included.
package mem

import (
	"errors"
	"reflect"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// preparedManager builds DRAM + NVMM + CT1 + CT2 over numPages of Dickens
// content; ctLimit > 0 clamps CT2's pool so demotions into it reject
// mid-region and fall back; dramCap > 0 bounds DRAM so those fallbacks
// can themselves fail with ErrTierFull.
func preparedManager(t *testing.T, numPages int64, ctLimit int, dramCap int64) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages:          numPages,
		Content:           corpus.NewGenerator(corpus.Dickens, 42),
		DRAMCapacityPages: dramCap,
		ByteTiers:         []media.Kind{media.NVMM},
		CompressedTiers:   []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctLimit > 0 {
		if err := m.SetCompressedTierLimit(TierID(3), ctLimit); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// migrateRegionByPages is the page-granular reference for a region move:
// MigratePage over each of the region's pages, the results summed in page
// order and ErrTierFull reported once, after the last page, as
// CommitRegionMigration reports it.
func migrateRegionByPages(m *Manager, r RegionID, dest TierID) (MigrationResult, error) {
	var total MigrationResult
	full := false
	start := PageID(r) * RegionPages
	for p := start; p < min(start+RegionPages, PageID(m.NumPages())); p++ {
		res, err := m.MigratePage(p, dest)
		total.Moved += res.Moved
		total.Rejected += res.Rejected
		total.Skipped += res.Skipped
		total.LatencyNs += res.LatencyNs
		switch {
		case errors.Is(err, ErrTierFull):
			full = true
		case err != nil:
			return total, err
		}
	}
	if full {
		return total, ErrTierFull
	}
	return total, nil
}

// migrateScratch moves region r to dest the way a push thread does:
// prepare on the worker's own scratch, then commit.
func migrateScratch(m *Manager, r RegionID, dest TierID, sc *MigrationScratch) (MigrationResult, error) {
	pr, err := m.PrepareRegionMigrationScratch(r, dest, sc)
	if err != nil {
		return MigrationResult{}, err
	}
	return m.CommitRegionMigration(pr)
}

// TestMigrationScratchReuse: a worker-owned arena must be refilled by the
// commit's buffer release and drained by the next prepare — reuse across
// moves — while producing results identical to MigrateRegion's
// per-region scratch.
func TestMigrationScratchReuse(t *testing.T) {
	mA := preparedManager(t, 4*RegionPages, 0, 0)
	mB := preparedManager(t, 4*RegionPages, 0, 0)
	ct1 := TierID(2)
	sc := &MigrationScratch{}
	for r := RegionID(0); r < 4; r++ {
		got, errA := migrateScratch(mA, r, ct1, sc)
		want, errB := mB.MigrateRegion(r, ct1)
		if errors.Is(errA, ErrTierFull) != errors.Is(errB, ErrTierFull) ||
			(errA == nil) != (errB == nil) {
			t.Fatalf("region %d: caller scratch err %v vs per-region scratch err %v", r, errA, errB)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("region %d: caller scratch result %+v != per-region scratch result %+v", r, got, want)
		}
	}
	if !reflect.DeepEqual(mA.TierPages(), mB.TierPages()) {
		t.Fatal("caller-scratch and per-region-scratch paths diverged in residency")
	}
	if sc.Buffers() == 0 {
		t.Fatal("arena empty after commits: buffers were not returned for reuse")
	}
	// The arena's population must stabilize: a second sweep through the
	// same shape of work allocates nothing new.
	high := sc.Buffers()
	for r := RegionID(0); r < 4; r++ {
		if _, err := migrateScratch(mA, r, DRAMTier, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := migrateScratch(mA, r, ct1, sc); err != nil && !errors.Is(err, ErrTierFull) {
			t.Fatal(err)
		}
	}
	if sc.Buffers() > high+RegionPages {
		t.Fatalf("arena grew from %d to %d buffers on identical work", high, sc.Buffers())
	}
	// Nil arena stays valid (global pool, stateless codecs).
	var nilSC *MigrationScratch
	if _, err := migrateScratch(mB, 0, DRAMTier, nilSC); err != nil {
		t.Fatal(err)
	}
	if nilSC.Buffers() != 0 {
		t.Fatal("nil arena must report 0 buffers")
	}
}

// TestPrepareScratchAllocsPerRun: on a warmed scratch, preparing a whole
// region's move into CT-2 (zstd-class: content regeneration, compression,
// the PreparedRegion and its page slice) allocates nothing — buffers,
// encoder state and the region value all come back from the scratch. This
// is what keeps a sweep's alloc_bytes_per_op flat in its migration volume.
func TestPrepareScratchAllocsPerRun(t *testing.T) {
	m, err := NewManager(Config{
		NumPages:        2 * RegionPages,
		Content:         corpus.NewGenerator(corpus.Mixed, 7),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	ct2 := TierID(3)
	sc := &MigrationScratch{}
	cycle := func() {
		pr, err := m.PrepareRegionMigrationScratch(0, ct2, sc)
		if err != nil {
			t.Fatal(err)
		}
		pr.Release()
	}
	cycle()
	if n := testing.AllocsPerRun(5, cycle); n != 0 {
		t.Errorf("%v allocations per prepared region on a warmed scratch, want 0", n)
	}
	// The same holds when the region is committed, not abandoned, and
	// brought back (DRAM -> CT-2 -> DRAM, prepare+commit each way).
	roundTrip := func() {
		for _, dest := range []TierID{ct2, DRAMTier} {
			pr, err := m.PrepareRegionMigrationScratch(1, dest, sc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.CommitRegionMigration(pr); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip()
	if n := testing.AllocsPerRun(3, cycle); n != 0 {
		t.Errorf("%v allocations per prepared region after commits, want 0", n)
	}
}

// TestPreparedRegionRecycling: a consumed region goes back to its scratch
// and is the value the scratch's next prepare returns; until then it
// reads as consumed. Releasing an abandoned region returns every buffer
// exactly once.
func TestPreparedRegionRecycling(t *testing.T) {
	m := preparedManager(t, 2*RegionPages, 0, 0)
	ct1 := TierID(2)
	sc := &MigrationScratch{}
	pr, err := m.PrepareRegionMigrationScratch(0, ct1, sc)
	if err != nil {
		t.Fatal(err)
	}
	held := 2 * RegionPages // source page + compressed form, per page
	if got := sc.Buffers(); got != 0 {
		t.Fatalf("arena holds %d buffers while the region is prepared, want 0", got)
	}
	pr.Release()
	if got := sc.Buffers(); got != held {
		t.Fatalf("arena holds %d buffers after Release, want %d (each buffer returned once)", got, held)
	}
	if pr.Remaining() != 0 {
		t.Fatal("released region still reports remaining pages")
	}
	if mr, err := m.CommitRegionMigration(pr); err != nil || mr != (MigrationResult{}) {
		t.Fatalf("commit of a consumed region: %+v, %v; want zero, nil", mr, err)
	}
	pr.Release() // a second release is a no-op
	if got := sc.Buffers(); got != held {
		t.Fatalf("arena holds %d buffers after a second Release, want %d", got, held)
	}
	next, err := m.PrepareRegionMigrationScratch(1, ct1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if next != pr {
		t.Error("the scratch's next prepare did not reuse the consumed region")
	}
	if next.Remaining() != RegionPages {
		t.Fatalf("recycled region has %d pages, want %d", next.Remaining(), RegionPages)
	}
	if _, err := m.CommitRegionMigration(next); err != nil {
		t.Fatal(err)
	}
	if got := m.TierPages()[ct1]; got != RegionPages {
		t.Fatalf("CT-1 holds %d pages, want %d", got, RegionPages)
	}
}

// TestCommitRegionMigrationMatchesPageLoop: the same multi-hop migration
// sequence — including ErrTierFull fallbacks out of a clamped CT2 and a
// bounded DRAM — lands the exact same results, residency and counters, and
// reports ErrTierFull on the same moves, whether each region goes through
// prepare + commit or page by page through MigratePage.
func TestCommitRegionMigrationMatchesPageLoop(t *testing.T) {
	const numPages = 8 * RegionPages
	ct1, ct2 := TierID(2), TierID(3)
	type hop struct {
		r    RegionID
		dest TierID
	}
	plan := []hop{
		{0, ct1}, {1, ct2}, {2, ct1}, {3, ct2},
		{4, ct2}, {5, ct1}, {6, ct2}, {7, ct1},
		// Second wave: cross-CT moves and promotions over the now-clamped
		// CT2, plus skip-heavy repeats.
		{0, ct2}, {1, DRAMTier}, {2, ct2}, {3, ct1},
		{4, DRAMTier}, {5, ct1}, {6, ct1}, {7, ct2},
	}
	run := func(byPages bool) ([]MigrationResult, []bool, []int64, Counters) {
		m := preparedManager(t, numPages, 96, 2*RegionPages)
		results := make([]MigrationResult, len(plan))
		fulls := make([]bool, len(plan))
		for i, h := range plan {
			var err error
			if byPages {
				results[i], err = migrateRegionByPages(m, h.r, h.dest)
			} else {
				pr, perr := m.PrepareRegionMigration(h.r, h.dest)
				if perr != nil {
					t.Fatal(perr)
				}
				results[i], err = m.CommitRegionMigration(pr)
			}
			if errors.Is(err, ErrTierFull) {
				fulls[i] = true
				err = nil
			}
			if err != nil {
				t.Fatalf("byPages=%v hop %d: %v", byPages, i, err)
			}
		}
		return results, fulls, m.TierPages(), m.Counters()
	}
	baseRes, baseFull, basePages, baseCtr := run(true)
	fullSeen := false
	for _, f := range baseFull {
		fullSeen = fullSeen || f
	}
	if !fullSeen {
		t.Fatal("plan forced no ErrTierFull; equivalence test is vacuous")
	}
	res, fulls, pages, ctr := run(false)
	if !reflect.DeepEqual(res, baseRes) {
		t.Fatal("prepare + commit results differ from the MigratePage loop")
	}
	if !reflect.DeepEqual(fulls, baseFull) {
		t.Fatalf("ErrTierFull reporting differs: %v vs %v", fulls, baseFull)
	}
	if !reflect.DeepEqual(pages, basePages) {
		t.Fatalf("residency differs: %v vs %v", pages, basePages)
	}
	if ctr != baseCtr {
		t.Fatalf("counters differ: %+v vs %+v", ctr, baseCtr)
	}
}

// TestCommitRegionMigrationConsumed: a prepared region commits once;
// committing it again lands nothing and reports a zero result, nil error.
func TestCommitRegionMigrationConsumed(t *testing.T) {
	m := preparedManager(t, 2*RegionPages, 0, 0)
	ct1 := TierID(2)
	pr, err := m.PrepareRegionMigration(0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Remaining() != RegionPages {
		t.Fatalf("Remaining = %d, want %d", pr.Remaining(), RegionPages)
	}
	if mr, err := m.CommitRegionMigration(pr); err != nil || mr.Moved != RegionPages {
		t.Fatalf("first commit = %+v, %v; want the whole region moved", mr, err)
	}
	if pr.Remaining() != 0 {
		t.Fatalf("Remaining after commit = %d, want 0", pr.Remaining())
	}
	before := m.Counters()
	if mr, err := m.CommitRegionMigration(pr); err != nil || mr != (MigrationResult{}) {
		t.Fatalf("consumed CommitRegionMigration = %+v, %v; want zero, nil", mr, err)
	}
	if m.Counters() != before || m.TierPages()[ct1] != RegionPages {
		t.Fatal("committing a consumed region changed the manager")
	}
}

// TestCommitRegionMigrationWrongManager: committing a region prepared on
// another manager errors and consumes the prepared region.
func TestCommitRegionMigrationWrongManager(t *testing.T) {
	m1 := preparedManager(t, 2*RegionPages, 0, 0)
	m2 := preparedManager(t, 2*RegionPages, 0, 0)
	pr, err := m1.PrepareRegionMigration(0, TierID(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.CommitRegionMigration(pr); err == nil {
		t.Fatal("cross-manager commit succeeded")
	}
	if mr, err := m1.CommitRegionMigration(pr); err != nil || mr != (MigrationResult{}) {
		t.Fatalf("consumed region after cross-manager error: got %+v, %v; want zero, nil", mr, err)
	}
	if got := m1.TierPages()[TierID(2)]; got != 0 {
		t.Fatalf("CT-1 holds %d pages after a refused commit, want 0", got)
	}
}

// TestCommitRegionMigrationNil: a nil prepared region is an error, not a
// nil dereference on a push thread.
func TestCommitRegionMigrationNil(t *testing.T) {
	m := preparedManager(t, RegionPages, 0, 0)
	if _, err := m.CommitRegionMigration(nil); err == nil {
		t.Fatal("committing a nil prepared region succeeded")
	}
}
