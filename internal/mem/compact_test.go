package mem

import (
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/ztier"
)

// fragmentedManager builds a manager with two compressed tiers, pushes two
// regions into each, then faults a third of the pages back out so both
// pools are left fragmented with reclaimable zspages.
func fragmentedManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages:        4 * RegionPages,
		Content:         corpus.NewGenerator(corpus.Dickens, 3),
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	for region, tier := range []TierID{0: 1, 1: 1, 2: 2, 3: 2} {
		if _, err := m.MigrateRegion(RegionID(region), tier); err != nil {
			t.Fatal(err)
		}
	}
	for p := PageID(0); p < 4*RegionPages; p += 3 {
		if m.TierOf(p) != 0 {
			if _, err := m.Access(p, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// TestCompactBudgetedMatchesUnbounded: the deprecated CompactBudgeted
// ignores its page budget — a budget of 2 on one twin manager does, in one
// call, exactly what Compact does on the other: the same totals (pages,
// objects, bytes, cost), the same footprints, and every page still
// readable.
func TestCompactBudgetedMatchesUnbounded(t *testing.T) {
	full := fragmentedManager(t)
	old := fragmentedManager(t)

	want := full.Compact()
	if want.PagesReclaimed <= 2 || want.ObjectsMoved == 0 {
		t.Fatalf("fragmentation left too little to compact for a budget of 2 to bite: %+v", want)
	}
	if want.CostNs <= 0 {
		t.Fatalf("pass moved %d objects at zero cost", want.ObjectsMoved)
	}
	if got := old.CompactBudgeted(2); got != want {
		t.Fatalf("CompactBudgeted(2) = %+v, want Compact's %+v", got, want)
	}
	for _, id := range []TierID{1, 2} {
		fs, err := full.CompressedTierStats(id)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := old.CompressedTierStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if fs.PoolPages != bs.PoolPages {
			t.Fatalf("tier %d footprint diverged: Compact %d, CompactBudgeted %d", id, fs.PoolPages, bs.PoolPages)
		}
	}
	for p := PageID(0); p < 4*RegionPages; p++ {
		if _, err := old.Access(p, false); err != nil {
			t.Fatalf("page %d unreadable after compaction: %v", p, err)
		}
	}
}

// TestCompactSkipsQuietTiers: once a tier's pool has been compacted and
// sees no churn, later passes skip it without changing what is reclaimed
// or charged.
func TestCompactSkipsQuietTiers(t *testing.T) {
	m := fragmentedManager(t)

	first := m.Compact()
	if first.PagesReclaimed == 0 {
		t.Fatal("first pass reclaimed nothing")
	}
	if first.SkippedTiers != 0 {
		t.Fatalf("first pass skipped %d tiers; every tier needs its first pass", first.SkippedTiers)
	}

	second := m.Compact()
	if second.SkippedTiers != 2 {
		t.Fatalf("quiet pass skipped %d tiers, want 2", second.SkippedTiers)
	}
	if second.PagesReclaimed != 0 || second.ObjectsMoved != 0 || second.CostNs != 0 {
		t.Fatalf("quiet pass did work: %+v", second)
	}

	// Churn only tier 1 (faults free pool objects); the next pass must
	// rescan tier 1 but still skip tier 2.
	churned := 0
	for p := PageID(0); p < 2*RegionPages && churned < 8; p++ {
		if m.TierOf(p) == 1 {
			if _, err := m.Access(p, false); err != nil {
				t.Fatal(err)
			}
			churned++
		}
	}
	if churned == 0 {
		t.Fatal("no pages left in tier 1 to churn")
	}
	third := m.Compact()
	if third.SkippedTiers != 1 {
		t.Fatalf("post-churn pass skipped %d tiers, want 1 (only the quiet one)", third.SkippedTiers)
	}
}
