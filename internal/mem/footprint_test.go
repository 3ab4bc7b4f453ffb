package mem

import (
	"errors"
	"reflect"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// footprintManager builds DRAM (optionally bounded) + NVMM + CT1 + CT2.
func footprintManager(t *testing.T, numPages, dramCap int64) *Manager {
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
	return m
}

func TestTierSetOps(t *testing.T) {
	var s TierSet
	if s.Len() != 0 || s.Contains(0) {
		t.Fatal("zero TierSet must be empty")
	}
	s = s.With(2).With(5).With(2)
	if s.Len() != 2 || !s.Contains(2) || !s.Contains(5) || s.Contains(0) {
		t.Fatalf("set ops wrong: %b", s)
	}
	if !s.Overlaps(TierSet(0).With(5)) || s.Overlaps(TierSet(0).With(1)) {
		t.Fatal("Overlaps wrong")
	}
	if got := s.Union(TierSet(0).With(1)); got.Len() != 3 {
		t.Fatalf("Union wrong: %b", got)
	}
}

// TestMoveFootprintUnboundedBA: with every byte-addressable tier unbounded,
// a DRAM→CT demotion's footprint is just the compressed destination — DRAM
// sees only commutative counter updates and must impose no commit ordering,
// which is what lets demotions to different CTs overlap.
func TestMoveFootprintUnboundedBA(t *testing.T) {
	m := footprintManager(t, 4*RegionPages, 0)
	ct1, ct2 := TierID(2), TierID(3)

	fp, err := m.MoveFootprint(0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if want := TierSet(0).With(ct1); fp != want {
		t.Fatalf("DRAM→CT1 footprint = %b, want %b (CT1 only)", fp, want)
	}

	// NVMM→DRAM (both unbounded BA): empty footprint — fully commutative.
	if _, err := m.MigrateRegion(1, TierID(1)); err != nil {
		t.Fatal(err)
	}
	fp, err = m.MoveFootprint(1, DRAMTier)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 0 {
		t.Fatalf("NVMM→DRAM footprint = %b, want empty", fp)
	}

	// CT1→CT2: both compressed tiers, plus no fault-destination coupling
	// (no bounded BA tier exists to couple).
	if _, err := m.MigrateRegion(2, ct1); err != nil && !errors.Is(err, ErrTierFull) {
		t.Fatal(err)
	}
	fp, err = m.MoveFootprint(2, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if want := TierSet(0).With(ct1).With(ct2); fp != want {
		t.Fatalf("CT1→CT2 footprint = %b, want %b", fp, want)
	}

	// Skip-only move (region already wholly at dest): nothing is touched,
	// so the footprint is empty and the commit needs no ordering at all.
	if res := m.RegionResidency(2); res[ct1] != RegionPages {
		t.Fatalf("setup: region 2 not fully in CT1: %v", res)
	}
	fp, err = m.MoveFootprint(2, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if fp != 0 {
		t.Fatalf("skip-only footprint = %b, want empty", fp)
	}
}

// TestMoveFootprintBoundedCoupling: a bounded DRAM makes the fault-
// destination search order-sensitive, so any move that can displace a
// CT-resident page must couple the bounded BA set.
func TestMoveFootprintBoundedCoupling(t *testing.T) {
	m := footprintManager(t, 4*RegionPages, 2*RegionPages)
	ct1, ct2 := TierID(2), TierID(3)
	if got, want := m.FaultFallbackSet(), TierSet(0).With(DRAMTier); got != want {
		t.Fatalf("FaultFallbackSet = %b, want bounded DRAM only (%b)", got, want)
	}
	if got := m.OrderedTiers(); !got.Contains(DRAMTier) || got.Contains(TierID(1)) ||
		!got.Contains(ct1) || !got.Contains(ct2) {
		t.Fatalf("OrderedTiers = %b: want DRAM+CT1+CT2, not NVMM", got)
	}

	// DRAM→CT1 with bounded DRAM: source DRAM is order-sensitive (its
	// occupancy feeds later admissions) but there is no CT-source page, so
	// no fault-destination coupling beyond DRAM itself.
	fp, err := m.MoveFootprint(0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if want := TierSet(0).With(DRAMTier).With(ct1); fp != want {
		t.Fatalf("bounded DRAM→CT1 footprint = %b, want %b", fp, want)
	}

	// CT1→CT2 with bounded DRAM: rejection can displace pages through the
	// fault-destination search, which couples bounded DRAM.
	if _, err := m.MigrateRegion(1, ct1); err != nil && !errors.Is(err, ErrTierFull) {
		t.Fatal(err)
	}
	fp, err = m.MoveFootprint(1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !fp.Contains(DRAMTier) {
		t.Fatalf("CT1→CT2 with bounded DRAM: footprint %b must couple DRAM", fp)
	}
}

func TestMoveFootprintValidation(t *testing.T) {
	m := footprintManager(t, 2*RegionPages, 0)
	if _, err := m.MoveFootprint(99, DRAMTier); !errors.Is(err, ErrBadPage) {
		t.Fatalf("bad region: err = %v, want ErrBadPage", err)
	}
	if _, err := m.MoveFootprint(0, TierID(99)); !errors.Is(err, ErrNoSuchTier) {
		t.Fatalf("bad dest: err = %v, want ErrNoSuchTier", err)
	}
}

// TestPreparedRegionFootprintMatchesStatic: the footprint recorded on a
// PreparedRegion (from prepare-time observations) must equal the static
// MoveFootprint when no concurrent mutation intervenes.
func TestPreparedRegionFootprintMatchesStatic(t *testing.T) {
	m := footprintManager(t, 4*RegionPages, 0)
	ct1, ct2 := TierID(2), TierID(3)
	if _, err := m.MigrateRegion(1, ct1); err != nil && !errors.Is(err, ErrTierFull) {
		t.Fatal(err)
	}
	for _, mv := range []struct {
		r RegionID
		d TierID
	}{{0, ct1}, {1, ct2}, {1, DRAMTier}, {2, TierID(1)}} {
		want, err := m.MoveFootprint(mv.r, mv.d)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := m.PrepareRegionMigration(mv.r, mv.d)
		if err != nil {
			t.Fatal(err)
		}
		got := pr.Footprint()
		pr.Release()
		if got != want {
			t.Fatalf("region %d → tier %d: prepared footprint %b != static %b",
				mv.r, mv.d, got, want)
		}
	}
}

// TestMigrationScratchReuse: a worker-owned arena must be refilled by the
// commit's buffer release and drained by the next prepare — reuse across
// moves — while producing results identical to MigrateRegion's
// per-region scratch.
func TestMigrationScratchReuse(t *testing.T) {
	mA := footprintManager(t, 4*RegionPages, 0)
	mB := footprintManager(t, 4*RegionPages, 0)
	ct1 := TierID(2)
	sc := &MigrationScratch{}
	for r := RegionID(0); r < 4; r++ {
		got, errA := mA.MigrateRegionScratch(r, ct1, sc)
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
		if _, err := mA.MigrateRegionScratch(r, DRAMTier, sc); err != nil {
			t.Fatal(err)
		}
		if _, err := mA.MigrateRegionScratch(r, ct1, sc); err != nil && !errors.Is(err, ErrTierFull) {
			t.Fatal(err)
		}
	}
	if sc.Buffers() > high+RegionPages {
		t.Fatalf("arena grew from %d to %d buffers on identical work", high, sc.Buffers())
	}
	// Nil arena stays valid (global pool, stateless codecs).
	var nilSC *MigrationScratch
	if _, err := mB.MigrateRegionScratch(0, DRAMTier, nilSC); err != nil {
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
// reads as consumed. Releasing a half-committed region returns only the
// uncommitted pages' buffers.
func TestPreparedRegionRecycling(t *testing.T) {
	m := footprintManager(t, 2*RegionPages, 0)
	ct1 := TierID(2)
	sc := &MigrationScratch{}
	pr, err := m.PrepareRegionMigrationScratch(0, ct1, sc)
	if err != nil {
		t.Fatal(err)
	}
	held := 2 * RegionPages // source page + compressed form, per page
	ck, err := m.CommitBatch(pr, RegionPages/2)
	if err != nil || ck.Done {
		t.Fatalf("half commit: %+v, %v", ck, err)
	}
	if got := sc.Buffers(); got != held/2 {
		t.Fatalf("arena holds %d buffers after half the commits, want %d", got, held/2)
	}
	pr.Release()
	if got := sc.Buffers(); got != held {
		t.Fatalf("arena holds %d buffers after Release, want %d (each buffer returned once)", got, held)
	}
	if pr.Remaining() != 0 {
		t.Fatal("released region still reports remaining pages")
	}
	if ck, err := m.CommitBatch(pr, 0); err != nil || !ck.Done {
		t.Fatalf("commit of a consumed region: %+v, %v; want Done", ck, err)
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
	if got := m.TierPages()[ct1]; got != RegionPages+RegionPages/2 {
		t.Fatalf("CT-1 holds %d pages, want %d", got, RegionPages+RegionPages/2)
	}
}
