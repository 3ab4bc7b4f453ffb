package mem

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/stats"
	"tierscape/internal/ztier"
)

func testManager(t *testing.T, numPages int64) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages:        numPages,
		Content:         corpus.NewGenerator(corpus.Dickens, 42),
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInitialPlacementAllDRAM(t *testing.T) {
	m := testManager(t, 1024)
	tp := m.TierPages()
	if tp[0] != 1024 {
		t.Fatalf("DRAM pages = %d, want 1024", tp[0])
	}
	for i := 1; i < len(tp); i++ {
		if tp[i] != 0 {
			t.Fatalf("tier %d pages = %d, want 0", i, tp[i])
		}
	}
}

func TestTierLayout(t *testing.T) {
	m := testManager(t, 64)
	tiers := m.Tiers()
	if len(tiers) != 4 {
		t.Fatalf("tier count = %d, want 4 (DRAM, NVMM, CT1, CT2)", len(tiers))
	}
	if tiers[0].Name != "DRAM" || tiers[0].Compressed {
		t.Error("tier 0 must be DRAM")
	}
	if tiers[1].Name != "NVMM" || tiers[1].Compressed {
		t.Error("tier 1 must be NVMM")
	}
	if !tiers[2].Compressed || !tiers[3].Compressed {
		t.Error("tiers 2,3 must be compressed")
	}
	if !(tiers[0].AccessNs < tiers[1].AccessNs && tiers[1].AccessNs < tiers[2].AccessNs) {
		t.Error("access latency must increase DRAM < NVMM < CT1")
	}
	if !(tiers[2].AccessNs < tiers[3].AccessNs) {
		t.Error("CT1 must be faster than CT2")
	}
}

func TestDRAMAccessLatency(t *testing.T) {
	m := testManager(t, 64)
	res, err := m.Access(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault || res.Tier != DRAMTier {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.LatencyNs != 33 {
		t.Fatalf("DRAM access latency = %v, want 33", res.LatencyNs)
	}
}

func TestMigrateToNVMMAndAccess(t *testing.T) {
	m := testManager(t, 64)
	if _, err := m.MigratePage(5, 1); err != nil {
		t.Fatal(err)
	}
	if m.TierOf(5) != 1 {
		t.Fatal("page 5 not in NVMM")
	}
	res, err := m.Access(5, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault {
		t.Fatal("NVMM access must not fault")
	}
	if res.LatencyNs != 350 {
		t.Fatalf("NVMM latency = %v, want 350", res.LatencyNs)
	}
	// Page stays in NVMM (no automatic promotion for byte tiers).
	if m.TierOf(5) != 1 {
		t.Fatal("NVMM access should not move the page")
	}
}

func TestCompressedFaultPromotesToDRAM(t *testing.T) {
	m := testManager(t, 64)
	if _, err := m.MigratePage(7, 2); err != nil {
		t.Fatal(err)
	}
	if m.TierOf(7) != 2 {
		t.Fatal("page 7 not in CT1")
	}
	res, err := m.Access(7, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fault || res.Tier != 2 {
		t.Fatalf("unexpected fault result %+v", res)
	}
	if res.LatencyNs < 1000 {
		t.Fatalf("fault latency = %v ns, implausibly low", res.LatencyNs)
	}
	if m.TierOf(7) != DRAMTier {
		t.Fatal("faulted page must now be in DRAM")
	}
	if m.Counters().Faults != 1 {
		t.Fatalf("Faults = %d", m.Counters().Faults)
	}
	// Second access: fast DRAM hit.
	res2, _ := m.Access(7, false)
	if res2.Fault || res2.LatencyNs != 33 {
		t.Fatalf("post-fault access %+v", res2)
	}
}

func TestPageCountsConserved(t *testing.T) {
	m := testManager(t, 512)
	rng := stats.NewRNG(7)
	for i := 0; i < 2000; i++ {
		p := PageID(rng.Intn(512))
		switch rng.Intn(3) {
		case 0:
			if _, err := m.Access(p, rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		default:
			dest := TierID(rng.Intn(4))
			if _, err := m.MigratePage(p, dest); err != nil {
				t.Fatal(err)
			}
		}
		var total int64
		for _, v := range m.TierPages() {
			total += v
		}
		if total != 512 {
			t.Fatalf("iteration %d: %d pages tracked, want 512", i, total)
		}
	}
}

func TestMigrateRegion(t *testing.T) {
	m := testManager(t, RegionPages*2)
	res, err := m.MigrateRegion(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved+res.Rejected != RegionPages {
		t.Fatalf("moved %d + rejected %d != %d", res.Moved, res.Rejected, RegionPages)
	}
	rr := m.RegionResidency(1)
	if rr[3] != int64(res.Moved) {
		t.Fatalf("residency %v does not reflect %d moved", rr, res.Moved)
	}
	if m.DominantTier(1) != 3 {
		t.Fatalf("dominant tier = %d, want 3", m.DominantTier(1))
	}
	if m.DominantTier(0) != DRAMTier {
		t.Fatal("region 0 should still be DRAM-dominant")
	}
}

func TestCompressedToCompressedMigration(t *testing.T) {
	m := testManager(t, 64)
	if _, err := m.MigratePage(3, 2); err != nil {
		t.Fatal(err)
	}
	res, err := m.MigratePage(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved != 1 {
		t.Fatalf("CT1->CT2 move failed: %+v", res)
	}
	if m.TierOf(3) != 3 {
		t.Fatal("page not in CT2")
	}
	// The naive path decompresses then recompresses: latency must include
	// both a load and a store component.
	if res.LatencyNs < 5000 {
		t.Fatalf("CT->CT migration latency %v ns implausibly low", res.LatencyNs)
	}
	s2, _ := m.CompressedTierStats(2)
	s3, _ := m.CompressedTierStats(3)
	if s2.Pages != 0 || s3.Pages != 1 {
		t.Fatalf("tier stats: CT1=%d CT2=%d pages", s2.Pages, s3.Pages)
	}
}

func TestIncompressiblePagesRejected(t *testing.T) {
	m, err := NewManager(Config{
		NumPages:        64,
		Content:         corpus.NewGenerator(corpus.Random, 1),
		CompressedTiers: []ztier.Config{ztier.CT1()},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.MigratePage(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 1 || res.Moved != 0 {
		t.Fatalf("random page: %+v, want rejection", res)
	}
	if m.TierOf(0) != DRAMTier {
		t.Fatal("rejected page must remain in DRAM")
	}
	if m.Counters().Rejects != 1 {
		t.Fatalf("Rejects = %d", m.Counters().Rejects)
	}
}

func TestContentResultsDoNotAlias(t *testing.T) {
	// Regression: content() used to hand every caller the same persistent
	// scratch array, so holding two results silently corrupted the first.
	m := testManager(t, 8)
	a := m.content(0, make([]byte, PageSize))
	b := m.content(1, make([]byte, PageSize))
	c := m.content(0, make([]byte, PageSize))
	if &a[0] == &b[0] {
		t.Fatal("content results share a backing array")
	}
	if string(a) != string(c) {
		t.Fatal("content not deterministic for the same page")
	}
	if string(a) == string(b) {
		t.Fatal("distinct pages produced identical content")
	}
}

// flipSource serves inner's bytes until flipped, and incompressible ones
// after: a page demoted while compressible is regenerated, at its next
// move, as bytes no codec shrinks.
type flipSource struct {
	inner   corpus.Source
	flipped bool
}

func (f *flipSource) Fill(pageIdx uint64, buf []byte) {
	if f.flipped {
		corpus.NewGenerator(corpus.Random, 1).Fill(pageIdx, buf)
		return
	}
	f.inner.Fill(pageIdx, buf)
}

// TestMigratePageFallbackOnReject covers where a page the destination
// rejects as incompressible lands, table-driven over the source-tier kinds:
// a byte-addressable source keeps it, and a compressed source, which has
// already given its copy up, hands it to DRAM.
func TestMigratePageFallbackOnReject(t *testing.T) {
	const ct1, ct2 = TierID(2), TierID(3)
	cases := []struct {
		name string
		prep func(m *Manager, src *flipSource) // places page 2 and flips the content
		// expected outcome of MigratePage(2, ct2):
		wantTier TierID // where the page must end up
	}{
		{
			name: "BA source stays put",
			prep: func(m *Manager, src *flipSource) {
				if _, err := m.MigratePage(2, 1); err != nil { // page 2 into NVMM
					t.Fatal(err)
				}
				src.flipped = true
			},
			wantTier: 1,
		},
		{
			name: "CT source falls back to DRAM",
			prep: func(m *Manager, src *flipSource) {
				if _, err := m.MigratePage(2, ct1); err != nil || m.TierOf(2) != ct1 {
					t.Fatalf("page 2 into CT-1: %v, in tier %d", err, m.TierOf(2))
				}
				src.flipped = true // CT-2's codec differs: the move regenerates the page
			},
			wantTier: DRAMTier,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &flipSource{inner: corpus.NewGenerator(corpus.NCI, 11)}
			m, err := NewManager(Config{
				NumPages:        16,
				Content:         src,
				ByteTiers:       []media.Kind{media.NVMM},
				CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
			})
			if err != nil {
				t.Fatal(err)
			}
			tc.prep(m, src)
			rejects := m.Counters().Rejects
			res, err := m.MigratePage(2, ct2)
			if err != nil {
				t.Fatal(err)
			}
			if m.TierOf(2) != tc.wantTier {
				t.Fatalf("page ended in tier %d, want %d", m.TierOf(2), tc.wantTier)
			}
			if res.Rejected != 1 || res.Moved != 0 || m.Counters().Rejects != rejects+1 {
				t.Fatalf("result %+v, %d rejects; want the page rejected once", res, m.Counters().Rejects-rejects)
			}
			want := make([]int64, 4)
			want[DRAMTier], want[tc.wantTier] = 15, 1
			if tc.wantTier == DRAMTier {
				want[DRAMTier] = 16
			}
			if got := m.TierPages(); !reflect.DeepEqual(got, want) {
				t.Fatalf("tier pages %v, want %v", got, want)
			}
		})
	}
}

func TestWriteChangesContentVersion(t *testing.T) {
	m := testManager(t, 8)
	before := append([]byte(nil), m.content(0, make([]byte, PageSize))...)
	if _, err := m.Access(0, true); err != nil {
		t.Fatal(err)
	}
	after := m.content(0, make([]byte, PageSize))
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("write did not change page content version")
	}
}

func TestBadArgs(t *testing.T) {
	m := testManager(t, 8)
	if _, err := m.Access(-1, false); !errors.Is(err, ErrBadPage) {
		t.Error("negative page should fail")
	}
	if _, err := m.Access(8, false); !errors.Is(err, ErrBadPage) {
		t.Error("out-of-range page should fail")
	}
	if _, err := m.MigratePage(0, 99); !errors.Is(err, ErrNoSuchTier) {
		t.Error("bad tier should fail")
	}
	if _, err := NewManager(Config{NumPages: 0, Content: corpus.NewGenerator(corpus.NCI, 1)}); err == nil {
		t.Error("zero pages should fail")
	}
	if _, err := NewManager(Config{NumPages: 10}); err == nil {
		t.Error("missing content generator should fail")
	}
}

func TestMigrateSkipsSameTier(t *testing.T) {
	m := testManager(t, 8)
	res, err := m.MigratePage(0, DRAMTier)
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped != 1 || res.Moved != 0 {
		t.Fatalf("same-tier migrate: %+v", res)
	}
}

func TestTierFootprintReflectsCompression(t *testing.T) {
	m, err := NewManager(Config{
		NumPages:        RegionPages,
		Content:         corpus.NewGenerator(corpus.NCI, 4),
		CompressedTiers: []ztier.Config{ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MigrateRegion(0, 1); err != nil {
		t.Fatal(err)
	}
	fp := m.TierFootprintBytes()
	logical := int64(RegionPages) * PageSize
	if fp[1] <= 0 || fp[1] >= logical/4 {
		t.Fatalf("CT2 footprint %d for %d logical bytes; nci should compress >4x", fp[1], logical)
	}
	ratio := m.MeasuredRatio(1, 1.0)
	if ratio <= 0 || ratio >= 0.25 {
		t.Fatalf("measured ratio %v; want < 0.25 for nci under zstd", ratio)
	}
}

func TestMeasuredRatioFallback(t *testing.T) {
	m := testManager(t, 8)
	if got := m.MeasuredRatio(2, 0.5); got != 0.5 {
		t.Fatalf("empty tier ratio = %v, want fallback 0.5", got)
	}
	if got := m.MeasuredRatio(0, 0.7); got != 0.7 {
		t.Fatalf("non-CT tier ratio = %v, want fallback", got)
	}
}

func TestChurnInvariantProperty(t *testing.T) {
	// Property: arbitrary access/migrate churn preserves page-count
	// conservation and every page remains accessible.
	f := func(seed uint64) bool {
		m, err := NewManager(Config{
			NumPages:        128,
			Content:         corpus.NewGenerator(corpus.Mixed, seed),
			ByteTiers:       []media.Kind{media.NVMM},
			CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
		})
		if err != nil {
			return false
		}
		rng := stats.NewRNG(seed)
		for i := 0; i < 500; i++ {
			p := PageID(rng.Intn(128))
			if rng.Float64() < 0.5 {
				if _, err := m.Access(p, rng.Intn(4) == 0); err != nil {
					return false
				}
			} else {
				if _, err := m.MigratePage(p, TierID(rng.Intn(4))); err != nil {
					return false
				}
			}
		}
		var total int64
		for _, v := range m.TierPages() {
			total += v
		}
		if total != 128 {
			return false
		}
		for p := PageID(0); p < 128; p++ {
			if _, err := m.Access(p, false); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionHelpers(t *testing.T) {
	if PageID(0).Region() != 0 || PageID(RegionPages-1).Region() != 0 || PageID(RegionPages).Region() != 1 {
		t.Fatal("PageID.Region math wrong")
	}
	m := testManager(t, RegionPages+10)
	if m.NumRegions() != 2 {
		t.Fatalf("NumRegions = %d, want 2", m.NumRegions())
	}
}
