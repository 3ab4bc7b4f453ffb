package mem

import (
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// sameCodecManager builds two zstd tiers differing only in pool/media so
// the §7.1 same-codec migration fast path applies between them.
func sameCodecManager(t *testing.T) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages: RegionPages,
		Content:  corpus.NewGenerator(corpus.NCI, 5),
		CompressedTiers: []ztier.Config{
			{Codec: "zstd", Pool: "zsmalloc", Media: media.DRAM},
			{Codec: "zstd", Pool: "zsmalloc", Media: media.NVMM},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSameCodecMigrationSkipsRecompression(t *testing.T) {
	m := sameCodecManager(t)
	if _, err := m.MigratePage(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := m.MigratePage(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 1 {
		t.Fatalf("same-codec move failed: %+v", res)
	}
	// The fast path's cost is pool+media only; the naive path would pay
	// zstd decompress (9us) + compress (35us). Anything under 20us proves
	// the fast path ran.
	if res.LatencyNs > 20000 {
		t.Fatalf("latency %v ns suggests decompress+recompress ran", res.LatencyNs)
	}
	// Page must still be readable.
	ar, err := m.Access(0, false)
	if err != nil || !ar.Fault {
		t.Fatalf("access after fast-path move: %+v err=%v", ar, err)
	}
}

func TestSameCodecPathPreservesAccounting(t *testing.T) {
	m := sameCodecManager(t)
	for p := PageID(0); p < 64; p++ {
		if _, err := m.MigratePage(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	for p := PageID(0); p < 64; p++ {
		if _, err := m.MigratePage(p, 2); err != nil {
			t.Fatal(err)
		}
	}
	tp := m.TierPages()
	if tp[1] != 0 || tp[2] != 64 {
		t.Fatalf("tier pages %v, want all 64 in tier 2", tp)
	}
	s1, _ := m.CompressedTierStats(1)
	s2, _ := m.CompressedTierStats(2)
	if s1.Pages != 0 || s2.Pages != 64 {
		t.Fatalf("ztier stats: src=%d dst=%d", s1.Pages, s2.Pages)
	}
	if s1.PoolPages != 0 {
		t.Fatalf("source pool still holds %d pages", s1.PoolPages)
	}
}

func TestSampleRegionRatioTracksContent(t *testing.T) {
	// Regional corpus: region 0 = nci (highly compressible),
	// region 2 = random (incompressible).
	m, err := NewManager(Config{
		NumPages:        3 * RegionPages,
		Content:         corpus.NewGenerator(corpus.Regional, 1),
		CompressedTiers: []ztier.Config{ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	nci, err := m.SampleRegionRatio(0, "zstd", 4)
	if err != nil {
		t.Fatal(err)
	}
	random, err := m.SampleRegionRatio(2, "zstd", 4)
	if err != nil {
		t.Fatal(err)
	}
	if nci > 0.1 {
		t.Fatalf("nci region ratio %v, want < 0.1", nci)
	}
	if random < 0.95 {
		t.Fatalf("random region ratio %v, want ~1", random)
	}
	if _, err := m.SampleRegionRatio(99, "zstd", 2); err == nil {
		t.Fatal("out-of-range region accepted")
	}
	if _, err := m.SampleRegionRatio(0, "nope", 2); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestCompactAllReclaims(t *testing.T) {
	m, err := NewManager(Config{
		NumPages:        2 * RegionPages,
		Content:         corpus.NewGenerator(corpus.Dickens, 3),
		CompressedTiers: []ztier.Config{ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the tier, then fault most pages back out to fragment the pool.
	if _, err := m.MigrateRegion(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.MigrateRegion(1, 1); err != nil {
		t.Fatal(err)
	}
	for p := PageID(0); p < 2*RegionPages; p += 3 {
		if m.TierOf(p) == 1 {
			if _, err := m.Access(p, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	cs := m.Compact()
	reclaimed, ns := cs.PagesReclaimed, cs.CostNs
	if reclaimed <= 0 {
		t.Fatal("compaction reclaimed nothing after fragmentation")
	}
	if ns <= 0 {
		t.Fatal("compaction must cost daemon time")
	}
	// Everything still readable.
	for p := PageID(0); p < 2*RegionPages; p++ {
		if _, err := m.Access(p, false); err != nil {
			t.Fatalf("page %d unreadable after compaction: %v", p, err)
		}
	}
}

func TestZeroPagesUseSameFilledPath(t *testing.T) {
	m, err := NewManager(Config{
		NumPages:        RegionPages,
		Content:         corpus.NewGenerator(corpus.Zero, 1),
		CompressedTiers: []ztier.Config{ztier.CT1()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.MigrateRegion(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != RegionPages {
		t.Fatalf("moved %d, want all", res.Moved)
	}
	s, _ := m.CompressedTierStats(1)
	if s.SameFilled != RegionPages {
		t.Fatalf("SameFilled = %d, want %d", s.SameFilled, RegionPages)
	}
	if s.PoolPages != 0 {
		t.Fatalf("zero pages consumed %d pool pages", s.PoolPages)
	}
	// TCO: a tier full of same-filled pages has no physical footprint.
	fp := m.TierFootprintBytes()
	if fp[1] != 0 {
		t.Fatalf("footprint %d for all-zero tier", fp[1])
	}
}
