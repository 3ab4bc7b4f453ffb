package mem

import (
	"fmt"
	"strings"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// Tier ids of storeMemoManager's standard mix.
const (
	memoCT1 = TierID(2) // lzo
	memoCT2 = TierID(3) // zstd
)

// storeMemoManager is two regions of src over the standard mix.
func storeMemoManager(t *testing.T, src corpus.Source) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		NumPages:        2 * RegionPages,
		Content:         src,
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// storeMemoScript drives m through every kind of generic prepare — first
// demotions, re-demotion of written (version 1) and merely faulted pages,
// a cross-codec CT-1 → CT-2 move, a round trip through DRAM — and returns
// everything a caller can observe: each step's result, then residency,
// telemetry, counters and tier stats.
func storeMemoScript(t *testing.T, m *Manager, sc *MigrationScratch) string {
	t.Helper()
	var out strings.Builder
	move := func(r RegionID, dest TierID) {
		t.Helper()
		pr, err := m.PrepareRegionMigrationScratch(r, dest, sc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.CommitRegionMigration(pr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "region %d -> tier %d: %+v\n", r, dest, res)
	}
	move(0, memoCT1)
	move(1, memoCT2)
	for p := PageID(0); p < RegionPages; p += 7 {
		res, err := m.Access(p, p%3 == 0) // every third of them a write
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "access %d: %+v\n", p, res)
	}
	move(0, memoCT1)
	move(0, memoCT2)
	move(1, DRAMTier)
	move(1, memoCT1)
	fmt.Fprintf(&out, "pages %v\ntelemetry %+v\ncounters %+v\n", m.TierPages(), m.TierTelemetry(), m.Counters())
	for _, id := range []TierID{memoCT1, memoCT2} {
		st, _ := m.CompressedTierStats(id)
		fmt.Fprintf(&out, "tier %d %+v\n", id, st)
	}
	return out.String()
}

// TestStoreMemoEquivalence: a manager that fills the memo, one that finds
// everything in it and one that has none are indistinguishable from
// outside, at any budget; and the buffers a job recycles are its own — a
// job that scribbles over its whole scratch, slab included, afterwards
// spoils nothing for the next.
func TestStoreMemoEquivalence(t *testing.T) {
	gen := func() corpus.Source { return corpus.NewGenerator(corpus.Mixed, 5) }
	want := storeMemoScript(t, storeMemoManager(t, gen()), new(MigrationScratch))

	// What the script itself prepares twice: the pages it faults without
	// writing go back to CT-1 as the bytes they were (the incompressible
	// ones never left, and their rejection is remembered in the pte).
	var repeats int64
	for p := 0; p < RegionPages; p += 7 {
		if p%3 != 0 && p%4 != 3 {
			repeats++
		}
	}
	for _, budget := range []int64{0, 128 << 10, 1 << 30} {
		sm := ztier.NewStoreMemo(budget)
		var verified, mismatched int
		for round := 0; round < 3; round++ {
			if round == 2 {
				sm.Verify = func(k ztier.StoreKey, got, want ztier.PreparedStore) {
					verified++
					if !got.Equal(want) {
						mismatched++
					}
				}
			}
			before := sm.Stats()
			m := storeMemoManager(t, gen())
			m.ShareStores(sm)
			sc := new(MigrationScratch)
			if got := storeMemoScript(t, m, sc); got != want {
				t.Fatalf("budget %d, round %d: a manager on the memo differs from one without:\n%s\nwant:\n%s", budget, round, got, want)
			}
			st := sm.Stats()
			lookups, hits := st.Lookups-before.Lookups, st.Hits-before.Hits
			switch {
			case lookups == 0:
				t.Fatalf("budget %d, round %d: no lookups", budget, round)
			case budget == 0 && hits != 0:
				t.Errorf("budget 0, round %d: %d hits in a memo that admits nothing", round, hits)
			case budget == 1<<30 && round == 0 && hits != repeats:
				t.Errorf("round 0: %d hits, want the script's own %d repeats", hits, repeats)
			case budget == 1<<30 && round > 0 && hits != lookups:
				t.Errorf("round %d: %d of %d lookups hit, want all", round, hits, lookups)
			case budget == 128<<10 && round > 0 && (hits == 0 || hits == lookups):
				t.Errorf("one-slab budget, round %d: %d of %d lookups hit, want some", round, hits, lookups)
			}
			for _, b := range [][]byte{sc.page, sc.obj, sc.out, sc.recycled().slab} {
				b = b[:cap(b)]
				for i := range b {
					b[i] = 0xaa
				}
			}
		}
		if budget > 0 && (verified == 0 || mismatched != 0) {
			t.Errorf("budget %d: %d hits verified, %d mismatched", budget, verified, mismatched)
		}
	}
}

// TestStoreMemoBypass: a manager whose pages do not come from a
// *corpus.Generator has no identity to offer for them and never touches
// the memo it is handed.
func TestStoreMemoBypass(t *testing.T) {
	want := storeMemoScript(t, storeMemoManager(t, corpus.NewGenerator(corpus.Mixed, 5)), new(MigrationScratch))
	sm := ztier.NewStoreMemo(1 << 30)
	filler := storeMemoManager(t, corpus.NewGenerator(corpus.Mixed, 5))
	filler.ShareStores(sm)
	storeMemoScript(t, filler, new(MigrationScratch))
	filled := sm.Stats()

	src := &countingSource{src: corpus.NewGenerator(corpus.Mixed, 5)}
	m := storeMemoManager(t, src)
	m.ShareStores(sm)
	if got := storeMemoScript(t, m, new(MigrationScratch)); got != want {
		t.Error("a manager over a wrapped source differs from one over the generator itself")
	}
	if st := sm.Stats(); st != filled {
		t.Errorf("a manager over a non-Generator source moved the memo's stats from %+v to %+v", filled, st)
	}
	if len(src.fills) == 0 {
		t.Error("the wrapped source was never asked for a page")
	}
}

// TestStoreMemoVerifyCatchesBrokenKey: the checking mode is about truth,
// not sameness — it compares a hit with what this manager's page, at its
// current version, compresses to under this tier's codec. A key that left
// out the version would file a written page's lookup under the bytes it
// had before the write; one that left out the codec would answer a zstd
// tier with lzo's output. Plant exactly those entries, as such a key would
// have, and the mode reports them — those pages and no others.
func TestStoreMemoVerifyCatchesBrokenKey(t *testing.T) {
	g := corpus.NewGenerator(corpus.Mixed, 5)
	const (
		written  = PageID(4) // nci at both versions, different records
		crossed  = PageID(5) // prose
		numPages = 2 * RegionPages
	)
	lzo, zstd := ztier.MustNew(0, ztier.CT1()), ztier.MustNew(0, ztier.CT2())
	for _, c := range []struct {
		name    string
		dest    TierID
		codec   *ztier.Tier
		planted ztier.StoreKey
		as      ztier.PreparedStore // what the broken key would have found there
	}{
		{"no version term", memoCT1, lzo,
			ztier.StoreKey{Gen: *g, Index: uint64(written) + 1*numPages, Codec: "lzo"},
			lzo.PrepareStore(nil, g.Page(uint64(written), PageSize), nil)},
		{"no codec term", memoCT2, zstd,
			ztier.StoreKey{Gen: *g, Index: uint64(crossed), Codec: "zstd"},
			lzo.PrepareStore(nil, g.Page(uint64(crossed), PageSize), nil)},
	} {
		sm := ztier.NewStoreMemo(1 << 30)
		sm.Insert(c.planted, c.as)
		// Everything else goes in honestly: the same moves on another manager.
		run := func() {
			m := storeMemoManager(t, corpus.NewGenerator(corpus.Mixed, 5))
			m.ShareStores(sm)
			if _, err := m.Access(written, true); err != nil {
				t.Fatal(err)
			}
			if _, err := m.MigrateRegion(0, c.dest); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var verified int
		var bad []ztier.StoreKey
		sm.Verify = func(k ztier.StoreKey, got, want ztier.PreparedStore) {
			verified++
			if !got.Equal(want) {
				bad = append(bad, k)
			}
		}
		run()
		if verified != RegionPages || len(bad) != 1 || bad[0] != c.planted {
			t.Errorf("%s: %d hits verified, mismatches %+v; want %d verified and exactly the planted key %+v",
				c.name, verified, bad, RegionPages, c.planted)
		}
		// The planted store is a sound one for its own page: the check fires
		// on what the key names, not on how the entry looks.
		if c.codec.PrepareStore(nil, g.Page(c.planted.Index, PageSize), nil).Equal(c.as) {
			t.Errorf("%s: the planted store equals the true one; the case shows nothing", c.name)
		}
	}
}
