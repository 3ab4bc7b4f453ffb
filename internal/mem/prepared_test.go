// Prepare/commit suite: what a PreparedRegion and its MigrationScratch
// promise a push thread — buffers, codec state and the region value with
// its slab come back for the next move, so that a warm scratch's faults and
// moves allocate nothing; a prepared region commits exactly once; and
// prepare + commit lands what moving the region page by page lands,
// rejected pages included.
package mem

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// preparedManager builds DRAM + NVMM + CT1 + CT2 over numPages of the
// profile's content (corpus.Mixed: every fourth page incompressible, so
// demotions reject pages mid-span and fall back).
func preparedManager(t *testing.T, numPages int64, profile corpus.Profile) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages:        numPages,
		Content:         corpus.NewGenerator(profile, 42),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// migrateRegionByPages is the page-granular reference for a region move:
// MigratePage over each of the region's pages, the results summed in page
// order.
func migrateRegionByPages(m *Manager, r RegionID, dest TierID) (MigrationResult, error) {
	var total MigrationResult
	start := PageID(r) * RegionPages
	for p := start; p < min(start+RegionPages, PageID(m.NumPages())); p++ {
		res, err := m.MigratePage(p, dest)
		total.Moved += res.Moved
		total.Rejected += res.Rejected
		total.Skipped += res.Skipped
		total.LatencyNs += res.LatencyNs
		if err != nil {
			return total, err
		}
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

// TestMigrationScratchReuse: a worker-owned scratch carries its buffers
// and its recycled region's slab from move to move — the slab stops
// growing once it has held the largest region — while producing results
// identical to MigrateRegion's per-region scratch.
func TestMigrationScratchReuse(t *testing.T) {
	mA := preparedManager(t, 4*RegionPages, corpus.Dickens)
	mB := preparedManager(t, 4*RegionPages, corpus.Dickens)
	ct1 := TierID(2)
	sc := &MigrationScratch{}
	for r := RegionID(0); r < 4; r++ {
		got, errA := migrateScratch(mA, r, ct1, sc)
		want, errB := mB.MigrateRegion(r, ct1)
		if errA != nil || errB != nil {
			t.Fatalf("region %d: caller scratch err %v vs per-region scratch err %v", r, errA, errB)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("region %d: caller scratch result %+v != per-region scratch result %+v", r, got, want)
		}
	}
	if !reflect.DeepEqual(mA.TierPages(), mB.TierPages()) {
		t.Fatal("caller-scratch and per-region-scratch paths diverged in residency")
	}
	if sc.recycled() == nil || cap(sc.recycled().slab) == 0 {
		t.Fatal("no recycled region with a slab on the scratch after commits")
	}
	// Identical work finds room in what the scratch already holds.
	high := cap(sc.recycled().slab)
	for r := RegionID(0); r < 4; r++ {
		if _, err := migrateScratch(mA, r, DRAMTier, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := migrateScratch(mA, r, ct1, sc); err != nil {
			t.Fatal(err)
		}
	}
	if got := cap(sc.recycled().slab); got != high {
		t.Fatalf("slab grew from %d to %d bytes on identical work", high, got)
	}
	// A nil scratch stays valid: the prepare makes one for the region.
	if _, err := migrateScratch(mB, 0, DRAMTier, nil); err != nil {
		t.Fatal(err)
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

// allocGuardManager is one region of Mixed content over DRAM and the
// given compressed tiers, numbered from 1.
func allocGuardManager(t *testing.T, tiers ...ztier.Config) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages:        RegionPages,
		Content:         corpus.NewGenerator(corpus.Mixed, 7),
		CompressedTiers: tiers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// steadyAllocs is the fewest allocations one run of f makes, over three
// runs after f has warmed up. A page path allocates on every run or on
// none, but the runtime now and then allocates beside it (a new thread's
// bookkeeping); the minimum sees the first and not the second.
func steadyAllocs(f func()) float64 {
	f()
	n := math.Inf(1)
	for range 3 {
		n = min(n, testing.AllocsPerRun(1, f))
	}
	return n
}

// TestFaultAllocsPerRun: on a warmed scratch, a fault out of any pool
// under any codec allocates nothing — the pool object is read into the
// scratch's object buffer, its checksum verified, and nothing decodes it.
// One cycle demotes a region and faults every page of it back; the pools
// have recycled their pages by then, so the demotion allocates nothing
// either.
func TestFaultAllocsPerRun(t *testing.T) {
	for _, codec := range []string{"lz4", "lzo", "zstd", "deflate"} {
		for _, pool := range []string{"zbud", "zsmalloc", "z3fold"} {
			cfg := ztier.Config{Codec: codec, Pool: pool, Media: media.DRAM}
			t.Run(cfg.String(), func(t *testing.T) {
				m := allocGuardManager(t, cfg)
				sc := &MigrationScratch{}
				faults := 0
				cycle := func() {
					if _, err := migrateScratch(m, 0, 1, sc); err != nil {
						t.Fatal(err)
					}
					faults = 0
					for p := PageID(0); p < RegionPages; p++ {
						ar, err := m.AccessScratch(p, false, sc)
						if err != nil {
							t.Fatal(err)
						}
						if ar.Fault {
							faults++
						}
					}
				}
				if n := steadyAllocs(cycle); n != 0 {
					t.Errorf("%v allocations demoting a region and faulting its %d compressed pages back, want 0", n, faults)
				}
				if faults == 0 {
					t.Fatal("no page faulted; the guard is vacuous")
				}
			})
		}
	}
}

// TestMoveAllocsPerRun: on a warmed scratch, a region's prepare + commit
// allocates nothing whatever its source: a DRAM page regenerated, a
// compressed one decompressed for a cross-codec move (CT-1 → CT-2) or a
// promotion (CT-2 → DRAM), an object moved whole between two tiers of one
// codec (C1 → C2), a store copied out of the memo. The objects live in the
// region's slab, which the scratch keeps; the pools have recycled their
// pages after the first round.
func TestMoveAllocsPerRun(t *testing.T) {
	for _, c := range []struct {
		name  string
		tiers []ztier.Config
		memo  bool
	}{
		{"CT-1 to CT-2 to DRAM", []ztier.Config{ztier.CT1(), ztier.CT2()}, false},
		{"C1 to C2, same codec", []ztier.Config{ztier.Characterization(1), ztier.Characterization(2)}, false},
		{"memo hits", []ztier.Config{ztier.CT1(), ztier.CT2()}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := allocGuardManager(t, c.tiers...)
			sm := ztier.NewStoreMemo(1 << 30)
			if c.memo {
				m.ShareStores(sm)
			}
			sc := &MigrationScratch{}
			cycle := func() {
				for _, dest := range []TierID{1, 2, DRAMTier} {
					if _, err := migrateScratch(m, 0, dest, sc); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := sm.Stats()
			if n := steadyAllocs(cycle); n != 0 {
				t.Errorf("%v allocations per round trip DRAM → %s → %s → DRAM, want 0", n, c.tiers[0], c.tiers[1])
			}
			if st := sm.Stats(); c.memo && st.Hits-before.Hits < RegionPages {
				t.Errorf("%d memo hits over the runs; the guard does not time the memo", st.Hits-before.Hits)
			}
		})
	}
}

// TestPreparedRegionRecycling: a prepared region keeps exactly the bytes
// its commit lands — its slab is the compressed payload the destination
// gains, same-filled and rejected pages keeping none — and, once
// consumed, goes back to its scratch with the slab emptied but kept: the
// scratch's next prepare returns the same value, writing into the same
// slab. Until then the region reads as consumed.
func TestPreparedRegionRecycling(t *testing.T) {
	m := preparedManager(t, 2*RegionPages, corpus.Dickens)
	ct1 := TierID(2)
	sc := &MigrationScratch{}
	pr, err := m.PrepareRegionMigrationScratch(0, ct1, sc)
	if err != nil {
		t.Fatal(err)
	}
	if sc.recycled() != nil {
		t.Fatal("the scratch holds a region while its only one is prepared")
	}
	outgrown := firstOutgrownObject(t, pr)
	pr.Release()
	runtime.GC()
	runtime.GC()
	if outgrown.Value() != nil {
		t.Error("a released region still reaches an array its slab outgrew")
	}
	if sc.recycled() != pr || len(pr.slab) != 0 || cap(pr.slab) == 0 {
		t.Fatalf("after Release: scratch region %p (want %p), slab len %d cap %d; want it back, empty, kept",
			sc.recycled(), pr, len(pr.slab), cap(pr.slab))
	}
	if pr.Remaining() != 0 {
		t.Fatal("released region still reports remaining pages")
	}
	if mr, err := m.CommitRegionMigration(pr); err != nil || mr != (MigrationResult{}) {
		t.Fatalf("commit of a consumed region: %+v, %v; want zero, nil", mr, err)
	}
	pr.Release() // a second release is a no-op
	if sc.recycled() != pr {
		t.Fatal("a second Release lost the recycled region")
	}
	slab := pr.slab[:1]
	next, err := m.PrepareRegionMigrationScratch(0, ct1, sc) // the same bytes again
	if err != nil {
		t.Fatal(err)
	}
	if next != pr {
		t.Error("the scratch's next prepare did not reuse the consumed region")
	}
	if &next.slab[0] != &slab[0] {
		t.Error("the recycled region's prepare did not write into the kept slab")
	}
	if next.Remaining() != RegionPages {
		t.Fatalf("recycled region has %d pages, want %d", next.Remaining(), RegionPages)
	}
	kept := int64(len(next.slab))
	if _, err := m.CommitRegionMigration(next); err != nil {
		t.Fatal(err)
	}
	if got := m.TierPages()[ct1]; got != RegionPages {
		t.Fatalf("CT-1 holds %d pages, want %d", got, RegionPages)
	}
	st, err := m.CompressedTierStats(ct1)
	if err != nil {
		t.Fatal(err)
	}
	if st.CompressedBytes != kept {
		t.Fatalf("the prepared region kept %d bytes; its commit landed %d", kept, st.CompressedBytes)
	}
}

// firstOutgrownObject returns a weak pointer to the first object pr keeps,
// which the prepare wrote at the start of the slab's first array; the
// region's kept bytes must have outgrown that array, so only pr's pages
// still reach it.
func firstOutgrownObject(t *testing.T, pr *PreparedRegion) weak.Pointer[byte] {
	t.Helper()
	for _, pp := range pr.pages {
		if b := pp.destPrep.Scratch(); len(b) > 0 {
			if &b[0] == &pr.slab[0] {
				t.Fatal("the region's kept bytes fit the slab's first array; nothing was outgrown")
			}
			return weak.Make(&b[0])
		}
	}
	t.Fatal("the prepared region keeps no object")
	return weak.Pointer[byte]{}
}

// TestCommitRegionMigrationMatchesPageLoop: the same multi-hop migration
// sequence over content whose every fourth page no codec shrinks — so
// demotions fall back page by page, inside every span — lands the exact
// same results, residency, counters and pool statistics whether each region
// goes through prepare + commit or page by page through MigratePage. A
// compaction pass after the plan witnesses the pools' layouts: which
// objects it moves depends on the order every store landed in.
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
		// Second wave: cross-CT moves and promotions, plus skip-heavy
		// repeats.
		{0, ct2}, {1, DRAMTier}, {2, ct2}, {3, ct1},
		{4, DRAMTier}, {5, ct1}, {6, ct1}, {7, ct2},
	}
	run := func(byPages bool) ([]MigrationResult, []int64, Counters, []ztier.Stats, CompactStats) {
		m := preparedManager(t, numPages, corpus.Mixed)
		results := make([]MigrationResult, len(plan))
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
			if err != nil {
				t.Fatalf("byPages=%v hop %d: %v", byPages, i, err)
			}
		}
		var pools []ztier.Stats
		for _, ct := range []TierID{ct1, ct2} {
			st, err := m.CompressedTierStats(ct)
			if err != nil {
				t.Fatal(err)
			}
			pools = append(pools, st)
		}
		return results, m.TierPages(), m.Counters(), pools, m.Compact()
	}
	baseRes, basePages, baseCtr, basePools, baseCompact := run(true)
	if baseCtr.Rejects == 0 {
		t.Fatal("plan rejected no page; equivalence test is vacuous")
	}
	res, pages, ctr, pools, compact := run(false)
	if !reflect.DeepEqual(res, baseRes) {
		t.Fatal("prepare + commit results differ from the MigratePage loop")
	}
	if !reflect.DeepEqual(pages, basePages) {
		t.Fatalf("residency differs: %v vs %v", pages, basePages)
	}
	if ctr != baseCtr {
		t.Fatalf("counters differ: %+v vs %+v", ctr, baseCtr)
	}
	if !reflect.DeepEqual(pools, basePools) {
		t.Fatalf("pool statistics differ: %+v vs %+v", pools, basePools)
	}
	if compact != baseCompact {
		t.Fatalf("pool layouts differ: compaction %+v vs %+v", compact, baseCompact)
	}
}

// TestCommitRegionMigrationConsumed: a prepared region commits once;
// committing it again lands nothing and reports a zero result, nil error.
func TestCommitRegionMigrationConsumed(t *testing.T) {
	m := preparedManager(t, 2*RegionPages, corpus.Dickens)
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
	m1 := preparedManager(t, 2*RegionPages, corpus.Dickens)
	m2 := preparedManager(t, 2*RegionPages, corpus.Dickens)
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
	m := preparedManager(t, RegionPages, corpus.Dickens)
	if _, err := m.CommitRegionMigration(nil); err == nil {
		t.Fatal("committing a nil prepared region succeeded")
	}
}
