package ztier

import (
	"bytes"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
)

func TestStoreLoadRoundTrip(t *testing.T) {
	g := corpus.NewGenerator(corpus.Dickens, 1)
	for _, cfg := range characterization {
		tier := MustNew(1, cfg)
		page := g.Page(0, PageSize)
		h, storeNs, err := tier.Store(page)
		if err != nil {
			t.Fatalf("%s: store: %v", tier.Name(), err)
		}
		if storeNs <= 0 {
			t.Errorf("%s: store latency %v", tier.Name(), storeNs)
		}
		got, loadNs, err := tier.Load(h, nil)
		if err != nil {
			t.Fatalf("%s: load: %v", tier.Name(), err)
		}
		if !bytes.Equal(got, page) {
			t.Fatalf("%s: page corrupted through tier", tier.Name())
		}
		if loadNs <= 0 {
			t.Errorf("%s: load latency %v", tier.Name(), loadNs)
		}
		if h.CompressedSize() >= PageSize || h.CompressedSize() <= 0 {
			t.Errorf("%s: compressed size %d", tier.Name(), h.CompressedSize())
		}
	}
}

func TestIncompressibleRejected(t *testing.T) {
	g := corpus.NewGenerator(corpus.Random, 2)
	page := g.Page(0, PageSize)
	tier := MustNew(1, CT1())
	_, lat, err := tier.Store(page)
	if err != ErrIncompressible {
		t.Fatalf("store random page: err = %v, want ErrIncompressible", err)
	}
	if lat <= 0 {
		t.Error("rejected store should still cost compression time")
	}
	if tier.Stats().Rejects != 1 {
		t.Errorf("Rejects = %d, want 1", tier.Stats().Rejects)
	}
}

func TestFreeReleasesFootprint(t *testing.T) {
	g := corpus.NewGenerator(corpus.NCI, 3)
	tier := MustNew(1, CT2())
	var hs []Handle
	for i := uint64(0); i < 64; i++ {
		h, _, err := tier.Store(g.Page(i, PageSize))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if tier.Stats().PoolPages == 0 {
		t.Fatal("no pool pages after 64 stores")
	}
	for _, h := range hs {
		if err := tier.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	if got := tier.Stats().PoolPages; got != 0 {
		t.Fatalf("PoolPages after free-all = %d", got)
	}
}

func TestLatencyOrderingAcrossTiers(t *testing.T) {
	// Figure 2a orderings: C1 < C2 (media), C1 < C7 (codec+pool),
	// C7 < C12 (codec+media), and every DRAM variant beats its Optane twin.
	lat := func(k int) float64 {
		return MustNew(k, Characterization(k)).TypicalAccessNs()
	}
	if !(lat(1) < lat(2)) {
		t.Error("C1 should be faster than C2")
	}
	if !(lat(1) < lat(7)) {
		t.Error("C1 should be faster than C7")
	}
	if !(lat(7) < lat(12)) {
		t.Error("C7 should be faster than C12")
	}
	for k := 1; k <= 11; k += 2 {
		if !(lat(k) < lat(k+1)) {
			t.Errorf("C%d (DRAM) should be faster than C%d (Optane)", k, k+1)
		}
	}
	// Monotone within codec groups: zbud < zsmalloc per medium.
	if !(lat(1) < lat(3) && lat(2) < lat(4)) {
		t.Error("zbud tiers should be faster than zsmalloc tiers (lz4 group)")
	}
}

func TestTCOOrderingAcrossTiers(t *testing.T) {
	// Storing the same compressible data, C12 (deflate/zsmalloc/Optane)
	// must cost less than C1 (lz4/zbud/DRAM): better ratio, denser pool,
	// cheaper media.
	g := corpus.NewGenerator(corpus.NCI, 5)
	cost := func(k int) float64 {
		tier := MustNew(k, Characterization(k))
		for i := uint64(0); i < 128; i++ {
			if _, _, err := tier.Store(g.Page(i, PageSize)); err != nil {
				t.Fatalf("C%d: %v", k, err)
			}
		}
		s := tier.Stats()
		return float64(s.PoolBytes()) * tier.CostPerGB()
	}
	c1, c12 := cost(1), cost(12)
	if c12 >= c1 {
		t.Errorf("C12 cost %.0f should be well below C1 cost %.0f", c12, c1)
	}
	if c12 > c1/3 {
		t.Errorf("C12 cost %.0f vs C1 %.0f: expected >3x separation on nci", c12, c1)
	}
}

func TestConfigString(t *testing.T) {
	cfg := Config{Codec: "lzo", Pool: "zsmalloc", Media: media.DRAM}
	if got := cfg.String(); got != "ZS-LO-DR" {
		t.Fatalf("Config.String() = %q, want ZS-LO-DR", got)
	}
	cfg2 := Config{Codec: "lz4", Pool: "zbud", Media: media.NVMM}
	if got := cfg2.String(); got != "ZB-L4-OP" {
		t.Fatalf("Config.String() = %q, want ZB-L4-OP", got)
	}
}

func TestAnchorsMatchPaper(t *testing.T) {
	if Characterization(1).String() != "ZB-L4-DR" {
		t.Error("C1 should be ZB-L4-DR")
	}
	if Characterization(2).String() != "ZB-L4-OP" {
		t.Error("C2 should be ZB-L4-OP")
	}
	if Characterization(4).String() != "ZS-L4-OP" {
		t.Error("C4 should be ZS-L4-OP")
	}
	if Characterization(7).String() != "ZS-LO-DR" {
		t.Error("C7 should be ZS-LO-DR")
	}
	if Characterization(12).String() != "ZS-DE-OP" {
		t.Error("C12 should be ZS-DE-OP")
	}
	if CT1().String() != "ZS-LO-DR" {
		t.Error("CT-1 should be GSwap's ZS-LO-DR")
	}
	if CT2().String() != "ZS-ZS-OP" {
		t.Errorf("CT-2 should be TMO's zstd/zsmalloc/Optane, got %s", CT2().String())
	}
}

func TestOptionSpaceIs54(t *testing.T) {
	if got := len(OptionSpace()); got != 54 {
		t.Fatalf("option space = %d tiers, want 54 (6x3x3: Table 1 without 842)", got)
	}
	seen := map[string]bool{}
	for _, c := range OptionSpace() {
		key := c.Codec + "/" + c.Pool + "/" + c.Media.Name()
		if seen[key] {
			t.Fatalf("duplicate config %s", key)
		}
		seen[key] = true
	}
}

func TestSpectrumSet(t *testing.T) {
	s := SpectrumSet()
	if len(s) != 5 {
		t.Fatalf("spectrum set = %d tiers, want 5", len(s))
	}
}

func TestNewUnknownComponents(t *testing.T) {
	if _, err := New(1, Config{Codec: "nope", Pool: "zbud", Media: media.DRAM}); err == nil {
		t.Error("unknown codec should fail")
	}
	if _, err := New(1, Config{Codec: "lz4", Pool: "nope", Media: media.DRAM}); err == nil {
		t.Error("unknown pool should fail")
	}
}

func TestFaultCounting(t *testing.T) {
	g := corpus.NewGenerator(corpus.NCI, 9)
	tier := MustNew(1, CT1())
	h, _, err := tier.Store(g.Page(0, PageSize))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := tier.Load(h, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := tier.Stats()
	if s.Faults != 3 || s.Stores != 1 {
		t.Fatalf("Faults=%d Stores=%d, want 3,1", s.Faults, s.Stores)
	}
}

func TestMediaProperties(t *testing.T) {
	d := media.Props(media.DRAM)
	n := media.Props(media.NVMM)
	c := media.Props(media.CXL)
	if !(d.LoadNs < c.LoadNs && c.LoadNs < n.LoadNs) {
		t.Error("latency ordering DRAM < CXL < NVMM violated")
	}
	if !(n.CostPerGB < c.CostPerGB && c.CostPerGB < d.CostPerGB) {
		t.Error("cost ordering NVMM < CXL < DRAM violated")
	}
	if d.CostPerGB != 1.0 {
		t.Error("DRAM cost should be the 1.0 reference")
	}
	// Paper: NVMM $/GB is 1/3 of DRAM.
	if n.CostPerGB < 0.3 || n.CostPerGB > 0.35 {
		t.Errorf("NVMM cost %.3f, want ~1/3", n.CostPerGB)
	}
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"DR", "DRAM", "dram"} {
		k, err := media.ParseKind(s)
		if err != nil || k != media.DRAM {
			t.Errorf("ParseKind(%q) = %v, %v", s, k, err)
		}
	}
	if _, err := media.ParseKind("floppy"); err == nil {
		t.Error("ParseKind(floppy) should fail")
	}
}
