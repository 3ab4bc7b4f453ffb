package mem

// Concurrency suite for the manager: CI runs these under
// `go test -race -run Concurrent -count=3` (see .github/workflows/ci.yml),
// so every test here must be deterministic in its assertions even when its
// goroutine interleavings are not.

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// lcg is a tiny deterministic per-goroutine sequence so stress workers
// make reproducible choices without sharing a rand source.
type lcg uint64

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l >> 17)
}

// TestConcurrentStressManagerPhased drives one shared Manager the way its
// ownership contract says it is driven: rounds of an access phase — one
// goroutine, reads, writes and faults into a half-size DRAM, no lock —
// alternating with a migration phase of migrators, a compactor and stat
// readers all at once, the raw (unordered) push-thread shape. Every third
// region is incompressible; one migrator moves whole regions and the other
// goes page by page, so the rejection bits are set by commits (write lock)
// beside prepares reading them (read lock) and cleared by the access
// phase's writes. A WaitGroup
// ends each phase, which is all that orders it before the next. The race
// detector checks the migration phase's locking and that the hand-over is
// enough for the lock-free accesses; the conservation invariants, checked
// after every phase, check that residency accounting never loses or
// duplicates a page.
func TestConcurrentStressManagerPhased(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	const numPages = 8 * RegionPages
	const rounds = 5
	m, err := NewManager(Config{
		NumPages:          numPages,
		Content:           corpus.NewGenerator(corpus.Regional, 7),
		DRAMCapacityPages: numPages / 2, // force fault-spill and fallback paths
		ByteTiers:         []media.Kind{media.NVMM},
		CompressedTiers:   []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	numTiers := len(m.Tiers())
	numRegions := m.NumRegions()

	// Conservation: every page accounted for exactly once, in both the
	// per-tier residency counters and the page table itself.
	conserved := func(phase string, round int) {
		t.Helper()
		var total int64
		for _, n := range m.TierPages() {
			if n < 0 {
				t.Fatalf("round %d after %s: negative tier residency: %v", round, phase, m.TierPages())
			}
			total += n
		}
		if total != numPages {
			t.Fatalf("round %d after %s: tier residency sums to %d, want %d", round, phase, total, numPages)
		}
		byPTE := make([]int64, numTiers)
		for r := RegionID(0); r < RegionID(numRegions); r++ {
			for tier, n := range m.RegionResidency(r) {
				byPTE[tier] += n
			}
		}
		if !reflect.DeepEqual(byPTE, m.TierPages()) {
			t.Fatalf("round %d after %s: page-table residency %v != counter residency %v",
				round, phase, byPTE, m.TierPages())
		}
		c := m.Counters()
		if c.Faults < 0 || c.Migrations < 0 || c.Rejects < 0 {
			t.Fatalf("round %d after %s: counter went negative: %+v", round, phase, c)
		}
	}

	var wg sync.WaitGroup
	accessSeed := lcg(200)
	for round := 0; round < rounds; round++ {
		// Migration phase: migrators (random region → random tier, full
		// sweep semantics) beside a compactor and the daemon-side readers.
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(seed lcg, byPages bool) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					r := RegionID(seed.next() % uint64(numRegions))
					dest := TierID(seed.next() % uint64(numTiers))
					var err error
					if byPages {
						_, err = migrateRegionByPages(m, r, dest)
					} else {
						_, err = m.MigrateRegion(r, dest)
					}
					if err != nil && !errors.Is(err, ErrTierFull) {
						t.Errorf("migrate region %d → tier %d: %v", r, dest, err)
						return
					}
				}
			}(lcg(100+2*round+g), g == 1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				m.CompactBudgeted(0)
				m.TierPages()
				m.TierFootprintBytes()
				m.Counters()
				m.RegionResidency(RegionID(i % int(numRegions)))
				m.TierOf(PageID(i * 97 % numPages))
				for _, ti := range m.Tiers() {
					if ti.Compressed {
						m.MeasuredRatio(ti.ID, 0.5)
					}
				}
			}
		}()
		wg.Wait()
		conserved("migration", round)

		// Access phase: the driver alone, on a goroutine of its own so the
		// hand-over in each direction is the WaitGroup and nothing else.
		faults := m.Counters().Faults
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				p := PageID(accessSeed.next() % numPages)
				if _, err := m.Access(p, i%4 == 0); err != nil {
					t.Errorf("access page %d: %v", p, err)
					return
				}
			}
		}()
		wg.Wait()
		conserved("access", round)
		if round == 0 && m.Counters().Faults == faults {
			t.Fatal("the access phase never faulted; the stress is vacuous")
		}
	}
	if m.Counters().Rejects == 0 {
		t.Fatal("no page was ever rejected as incompressible; the rejection bits went unexercised")
	}
}

// boundedManager builds the capacity-property fixture: DRAM + one
// compressed tier whose pool is capped at limitPoolPages.
func boundedManager(t *testing.T, numPages int64, limitPoolPages int) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages:        numPages,
		Content:         corpus.NewGenerator(corpus.Dickens, 11),
		CompressedTiers: []ztier.Config{ztier.CT1()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if limitPoolPages > 0 {
		if err := m.SetCompressedTierLimit(m.Tiers()[1].ID, limitPoolPages); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestConcurrentCapacityReservationProperty is the admission property:
// demoting every region into a compressed tier that only has room for
// about half of them, (a) the pool's high-water mark never exceeds the
// byte budget no matter how many goroutines demote at once, and (b) the
// deterministic prepare/commit path reproduces the serial Rejected
// accounting exactly, region by region.
func TestConcurrentCapacityReservationProperty(t *testing.T) {
	const numPages = 8 * RegionPages

	// Size the budget from an unbounded serial run: half the pool pages
	// the full demotion actually needs, so roughly half the stores hit
	// the limit.
	probe := boundedManager(t, numPages, 0)
	ct := probe.Tiers()[1].ID
	for r := RegionID(0); r < RegionID(probe.NumRegions()); r++ {
		if _, err := probe.MigrateRegion(r, ct); err != nil {
			t.Fatal(err)
		}
	}
	full, err := probe.CompressedTierStats(ct)
	if err != nil {
		t.Fatal(err)
	}
	budget := full.PoolPages / 2
	if budget < 1 {
		t.Fatalf("degenerate budget from %d pool pages", full.PoolPages)
	}

	// Serial ground truth, page by page.
	serial := boundedManager(t, numPages, budget)
	nRegions := serial.NumRegions()
	serialRes := make([]MigrationResult, nRegions)
	for r := int64(0); r < nRegions; r++ {
		mr, err := migrateRegionByPages(serial, RegionID(r), ct)
		if err != nil && !errors.Is(err, ErrTierFull) {
			t.Fatal(err)
		}
		serialRes[r] = mr
	}
	ss, _ := serial.CompressedTierStats(ct)
	if ss.FullRejects == 0 {
		t.Fatal("budget never hit; property test is vacuous")
	}
	if ss.HighPoolPages > budget {
		t.Fatalf("serial run overshot the budget: high-water %d > %d", ss.HighPoolPages, budget)
	}

	// (a) Raw concurrency: goroutines race whole regions in; admission
	// under the tier lock must still never overshoot the byte budget.
	raw := boundedManager(t, numPages, budget)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := next.Add(1)
				if r >= nRegions {
					return
				}
				if _, err := raw.MigrateRegion(RegionID(r), ct); err != nil && !errors.Is(err, ErrTierFull) {
					t.Errorf("region %d: %v", r, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	rs, _ := raw.CompressedTierStats(ct)
	if rs.HighPoolPages > budget {
		t.Fatalf("concurrent demotions overshot the budget: high-water %d pool pages > %d",
			rs.HighPoolPages, budget)
	}
	if got := raw.TierFootprintBytes()[ct]; got > int64(budget)*PageSize {
		t.Fatalf("final footprint %d bytes exceeds budget %d bytes", got, int64(budget)*PageSize)
	}

	// (b) Deterministic engine shape: concurrent prepares, commits in
	// region order — Rejected (and everything else) must equal the serial
	// ground truth exactly.
	ordered := boundedManager(t, numPages, budget)
	prepared := make([]*PreparedRegion, nRegions)
	var pwg sync.WaitGroup
	var pnext atomic.Int64
	pnext.Store(-1)
	for w := 0; w < 4; w++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for {
				r := pnext.Add(1)
				if r >= nRegions {
					return
				}
				pr, err := ordered.PrepareRegionMigration(RegionID(r), ct)
				if err != nil {
					t.Errorf("prepare region %d: %v", r, err)
					return
				}
				prepared[r] = pr
			}
		}()
	}
	pwg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for r := int64(0); r < nRegions; r++ {
		mr, err := ordered.CommitRegionMigration(prepared[r])
		if err != nil && !errors.Is(err, ErrTierFull) {
			t.Fatal(err)
		}
		if mr != serialRes[r] {
			t.Fatalf("region %d: ordered commit %+v != serial %+v", r, mr, serialRes[r])
		}
	}
	os, _ := ordered.CompressedTierStats(ct)
	if os != ss {
		t.Fatalf("ordered-commit tier stats differ from serial:\nordered: %+v\nserial:  %+v", os, ss)
	}
	if !reflect.DeepEqual(ordered.TierPages(), serial.TierPages()) {
		t.Fatalf("residency differs: %v vs %v", ordered.TierPages(), serial.TierPages())
	}
	if ordered.Counters() != serial.Counters() {
		t.Fatalf("counters differ: %+v vs %+v", ordered.Counters(), serial.Counters())
	}
}

// TestConcurrentPreparedRegionEquivalence pins prepare/commit to the
// page-granular MigratePage loop across every move shape: BA→CT, CT→CT with
// the same codec (the §7.1 direct path), CT→CT across codecs, and CT→BA —
// on twin managers, every result, counter and tier stat must match.
func TestConcurrentPreparedRegionEquivalence(t *testing.T) {
	build := func() *Manager {
		m, err := NewManager(Config{
			NumPages: 4 * RegionPages,
			Content:  corpus.NewGenerator(corpus.Dickens, 3),
			CompressedTiers: []ztier.Config{
				{Codec: "lzo", Pool: "zsmalloc", Media: media.DRAM},
				{Codec: "lzo", Pool: "zsmalloc", Media: media.NVMM}, // same codec: fast path
				{Codec: "zstd", Pool: "zbud", Media: media.NVMM},    // cross codec
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := build(), build()
	steps := []struct {
		r    RegionID
		dest TierID
	}{
		{0, 1}, {1, 1}, {2, 3}, // demote into compressed tiers
		{0, 2},         // same-codec direct move
		{1, 3}, {2, 1}, // cross-codec recompress
		{0, 0}, {3, 3}, // promote back; fresh demotion
	}
	for i, st := range steps {
		ra, errA := migrateRegionByPages(a, st.r, st.dest)
		pr, err := b.PrepareRegionMigration(st.r, st.dest)
		if err != nil {
			t.Fatalf("step %d: prepare: %v", i, err)
		}
		rb, errB := b.CommitRegionMigration(pr)
		if ra != rb {
			t.Fatalf("step %d (region %d → tier %d): page loop %+v != prepare/commit %+v",
				i, st.r, st.dest, ra, rb)
		}
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("step %d: error mismatch: %v vs %v", i, errA, errB)
		}
	}
	if !reflect.DeepEqual(a.TierPages(), b.TierPages()) {
		t.Fatalf("residency diverged: %v vs %v", a.TierPages(), b.TierPages())
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("counters diverged: %+v vs %+v", a.Counters(), b.Counters())
	}
	for _, ti := range a.Tiers() {
		if !ti.Compressed {
			continue
		}
		sa, _ := a.CompressedTierStats(ti.ID)
		sb, _ := b.CompressedTierStats(ti.ID)
		if sa != sb {
			t.Fatalf("tier %s stats diverged:\npage loop:      %+v\nprepare/commit: %+v", ti.Name, sa, sb)
		}
	}
}

// TestRegionReadersBesideSpanApply: the whole-region readers —
// RegionResidency and the compressibility probe — run beside a move of
// the same region landing span by span (and beside prepares of its spans,
// as a push thread running ahead makes them). Each holds every span lock of
// the region at once, so it sees the region between two span commits:
// its counts sum to the region's pages, and since every page of these
// spans lands, each count is a whole number of spans. Run under -race.
func TestRegionReadersBesideSpanApply(t *testing.T) {
	m := preparedManager(t, 2*RegionPages, 0, 0) // DRAM, NVMM, CT-1, CT-2
	dests := []TierID{2, 3, 1, 0}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // the committing push thread
		defer wg.Done()
		defer done.Store(true)
		sc := new(MigrationScratch)
		for round := 0; round < 2; round++ {
			for _, dest := range dests {
				var total MigrationResult
				for j := 0; j < RegionPages/SpanPages; j++ {
					pr, err := m.PrepareSpanMigration(0, j, dest, sc)
					if err == nil {
						err = m.CommitMigrationInto(pr, sc, &total)
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
				if total.Moved != RegionPages {
					t.Errorf("move to tier %d moved %+v, want the whole region", dest, total)
				}
			}
		}
	}()
	go func() { // a push thread preparing ahead, its spans abandoned
		defer wg.Done()
		sc := new(MigrationScratch)
		for j := 0; !done.Load(); j = (j + 1) % (RegionPages / SpanPages) {
			pr, err := m.PrepareSpanMigration(0, j, 2, sc)
			if err != nil {
				t.Error(err)
				return
			}
			pr.Release()
		}
	}()
	go func() { // the readers
		defer wg.Done()
		for reads := 0; !done.Load() || reads == 0; reads++ {
			res := m.RegionResidency(0)
			var sum int64
			for tier, n := range res {
				sum += n
				if n%SpanPages != 0 {
					t.Errorf("tier %d holds %d of the region's pages: a span seen half committed (%v)", tier, n, res)
				}
			}
			if sum != RegionPages {
				t.Errorf("residency %v sums to %d pages, want %d", res, sum, RegionPages)
			}
			if ratio, err := m.SampleRegionRatio(0, "lz4", 16); err != nil || ratio <= 0 || ratio > 1 {
				t.Errorf("probe beside the apply: ratio %v, err %v", ratio, err)
			}
		}
	}()
	wg.Wait()
}
