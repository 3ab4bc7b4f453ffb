package ztier

import (
	"bytes"
	"errors"
	"testing"

	"tierscape/internal/corpus"
)

func TestSameFilledPageStoredWithoutPool(t *testing.T) {
	tier := MustNew(1, CT1())
	for _, fill := range []byte{0, 0xFF, 0x5A} {
		page := bytes.Repeat([]byte{fill}, PageSize)
		h, lat, err := tier.Store(page)
		if err != nil {
			t.Fatalf("fill %#x: %v", fill, err)
		}
		if !h.SameFilled() || h.CompressedSize() != 0 {
			t.Fatalf("fill %#x: handle %+v not same-filled", fill, h)
		}
		if lat <= 0 || lat > 2000 {
			t.Fatalf("same-filled store latency %v; should be a cheap scan", lat)
		}
		got, loadLat, err := tier.Load(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, page) {
			t.Fatalf("fill %#x: reconstructed page wrong", fill)
		}
		if loadLat <= 0 || loadLat > 2000 {
			t.Fatalf("same-filled load latency %v", loadLat)
		}
	}
	s := tier.Stats()
	if s.SameFilled != 3 || s.Pages != 3 {
		t.Fatalf("stats %+v, want 3 same-filled pages", s)
	}
	if s.PoolPages != 0 {
		t.Fatalf("same-filled pages consumed %d pool pages", s.PoolPages)
	}
}

func TestSameFilledFree(t *testing.T) {
	tier := MustNew(1, CT1())
	h, _, err := tier.Store(bytes.Repeat([]byte{7}, PageSize))
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Free(h); err != nil {
		t.Fatal(err)
	}
	s := tier.Stats()
	if s.SameFilled != 0 || s.Pages != 0 {
		t.Fatalf("after free: %+v", s)
	}
}

func TestStoreLoadCompressedRoundTrip(t *testing.T) {
	src := MustNew(1, Config{Codec: "lz4", Pool: "zbud", Media: 0})
	dst := MustNew(2, Config{Codec: "lz4", Pool: "zsmalloc", Media: 1})
	g := corpus.NewGenerator(corpus.NCI, 2)
	page := g.Page(0, PageSize)

	h, _, err := src.Store(page)
	if err != nil {
		t.Fatal(err)
	}
	comp, readNs, direct, err := src.LoadCompressed(h, nil)
	if err != nil || !direct {
		t.Fatalf("LoadCompressed: direct=%v err=%v", direct, err)
	}
	if readNs <= 0 {
		t.Fatal("read latency must be positive")
	}
	if len(comp) != h.CompressedSize() {
		t.Fatalf("compressed size %d != handle %d", len(comp), h.CompressedSize())
	}
	h2, storeNs, err := dst.StoreCompressed(comp)
	if err != nil {
		t.Fatal(err)
	}
	if storeNs <= 0 {
		t.Fatal("store latency must be positive")
	}
	got, _, err := dst.Load(h2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("page corrupted through compressed passthrough")
	}
}

func TestLoadCompressedSameFilledFallsBack(t *testing.T) {
	tier := MustNew(1, CT1())
	h, _, err := tier.Store(bytes.Repeat([]byte{3}, PageSize))
	if err != nil {
		t.Fatal(err)
	}
	_, _, direct, err := tier.LoadCompressed(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if direct {
		t.Fatal("same-filled handle must not take the direct path")
	}
}

func TestStoreCompressedRejectsOversize(t *testing.T) {
	tier := MustNew(1, CT1())
	if _, _, err := tier.StoreCompressed(make([]byte, PageSize)); !errors.Is(err, ErrIncompressible) {
		t.Fatalf("err = %v, want ErrIncompressible", err)
	}
}

func TestTierAccessors(t *testing.T) {
	tier := MustNew(7, CT1())
	if tier.id != 7 {
		t.Fatalf("id = %d", tier.id)
	}
	if tier.cfg != CT1() {
		t.Fatalf("cfg = %+v", tier.cfg)
	}
	if tier.Name() != "ZS-LO-DR" {
		t.Fatalf("Name = %q", tier.Name())
	}
}

func TestTierCompactAfterChurn(t *testing.T) {
	tier := MustNew(1, CT2())
	g := corpus.NewGenerator(corpus.Dickens, 7)
	var hs []Handle
	for i := uint64(0); i < 200; i++ {
		h, _, err := tier.Store(g.Page(i, PageSize))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	for i, h := range hs {
		if i%2 == 0 {
			if err := tier.Free(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	r, ns := tier.Compact()
	if r.PagesReclaimed <= 0 || ns <= 0 {
		t.Fatalf("Compact = %d pages, %v ns", r.PagesReclaimed, ns)
	}
	// Dense pool: nothing more to reclaim.
	if r2, n2 := tier.Compact(); r2.PagesReclaimed != 0 || n2 != 0 {
		t.Fatalf("second Compact = %d, %v", r2.PagesReclaimed, n2)
	}
	// Surviving handles intact.
	for i, h := range hs {
		if i%2 == 0 {
			continue
		}
		got, _, err := tier.Load(h, nil)
		if err != nil || len(got) != PageSize {
			t.Fatalf("handle %d broken after compact: %v", i, err)
		}
	}
}

func TestEncodingCoversAllComponents(t *testing.T) {
	cases := map[Config]string{
		{Codec: "lz4hc", Pool: "z3fold", Media: 2}:   "Z3-HC-CX",
		{Codec: "lzo-rle", Pool: "zbud", Media: 1}:   "ZB-LR-OP",
		{Codec: "lzo", Pool: "zsmalloc", Media: 0}:   "ZS-LO-DR",
		{Codec: "zstd", Pool: "zbud", Media: 2}:      "ZB-ZS-CX",
		{Codec: "deflate", Pool: "z3fold", Media: 1}: "Z3-DE-OP",
		{Codec: "custom", Pool: "mypool", Media: 0}:  "mypool-custom-DR",
	}
	for cfg, want := range cases {
		if got := cfg.String(); got != want {
			t.Errorf("%+v => %q, want %q", cfg, got, want)
		}
	}
}

func TestLatencyDefaultsForUnknownComponents(t *testing.T) {
	if PoolLookupNs("mystery") <= 0 || PoolStoreNs("mystery") <= 0 {
		t.Fatal("unknown pool must get a conservative default")
	}
	if DecompressNs("mystery", PageSize) <= 0 || CompressNs("mystery", PageSize) <= 0 {
		t.Fatal("unknown codec must get a conservative default")
	}
}

func TestCharacterizationBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Characterization(0) should panic")
		}
	}()
	Characterization(0)
}
