package mem

import (
	"bytes"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"tierscape/internal/compress"
	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// refPage is one page of the reference page table.
type refPage struct {
	tier     TierID
	version  uint32
	rejected []string // codecs that rejected this version
}

// refTable is a reference page table: page → (tier, version, rejections),
// moved by the rules alone — no tier map, span locks, prepared pages,
// slab, scratch or memo. A page a codec cannot shrink below a page is
// rejected and stays in its byte-addressable tier, or lands in DRAM from a
// compressed one; a write makes new bytes no codec has seen; a fault
// brings a page to DRAM.
type refTable struct {
	tiers []TierInfo
	gen   corpus.Source
	pages []refPage
	moves map[string]int // what the script exercised, by kind
}

func (r *refTable) access(p PageID, write bool) {
	pg := &r.pages[p]
	if write {
		pg.version++
		if len(pg.rejected) > 0 {
			r.moves["write to a rejected page"]++
		}
		pg.rejected = nil
	}
	if r.tiers[pg.tier].Compressed {
		pg.tier = DRAMTier
		r.moves["fault"]++
	}
}

func (r *refTable) migrate(start, end PageID, dest TierID) {
	d := r.tiers[dest]
	for p := start; p < end; p++ {
		pg := &r.pages[p]
		src := r.tiers[pg.tier]
		switch {
		case pg.tier == dest:
			continue
		case d.Compressed && r.incompressible(p, pg.version, d.Codec):
			pg.rejected = append(pg.rejected, d.Codec)
			r.moves["rejection"]++
			if src.Compressed {
				pg.tier = DRAMTier
			}
			continue
		case src.Compressed && src.Codec == d.Codec:
			r.moves["same-codec move"]++
		}
		pg.tier = dest
	}
}

// incompressible reports whether codec leaves page p's bytes at version v
// a page long or longer; a page of one repeated byte is never compressed.
func (r *refTable) incompressible(p PageID, v uint32, codec string) bool {
	buf := make([]byte, PageSize)
	r.gen.Fill(uint64(p)+uint64(v)*uint64(len(r.pages)), buf)
	c, err := compress.Lookup(codec)
	return err == nil && bytes.Count(buf, buf[:1]) < PageSize && len(c.Compress(nil, buf)) >= PageSize
}

// TestReferencePageTable drives a Manager and the reference page table
// with one seeded script of reads, writes, region moves to every tier
// (byte-addressable, compressed, and between tiers sharing a codec) and
// compaction passes, and after every step compares each page's tier,
// content index and rejection bits, and the per-tier page counts.
func TestReferencePageTable(t *testing.T) {
	const numPages = RegionPages + 2*SpanPages   // a partial second region
	gen := corpus.NewGenerator(corpus.Mixed, 11) // a page in four incompressible
	m, err := NewManager(Config{
		NumPages:  numPages,
		Content:   gen,
		ByteTiers: []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ // three codecs, two tiers each
			ztier.Characterization(1), ztier.Characterization(4),
			ztier.CT1(), {Codec: "lzo", Pool: "z3fold", Media: media.CXL},
			ztier.CT2(), {Codec: "zstd", Pool: "zbud", Media: media.DRAM},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := &refTable{tiers: m.Tiers(), gen: gen, pages: make([]refPage, numPages), moves: map[string]int{}}
	rng := rand.New(rand.NewPCG(54, 1))
	for step := range 300 {
		what := "compact"
		switch k := rng.IntN(20); {
		case k < 12:
			p, write := PageID(rng.IntN(numPages)), k < 4
			what = "access"
			if _, err := m.Access(p, write); err != nil {
				t.Fatalf("step %d: access page %d: %v", step, p, err)
			}
			ref.access(p, write)
		case k < 19:
			r, dest := RegionID(rng.IntN(int(m.NumRegions()))), TierID(rng.IntN(len(ref.tiers)))
			what = "move to " + ref.tiers[dest].Name
			if _, err := m.MigrateRegion(r, dest); err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			start, end := m.RegionSpan(r)
			ref.migrate(start, end, dest)
		default:
			m.Compact()
		}
		want := make([]int64, len(ref.tiers))
		for p := range PageID(numPages) {
			pg := ref.pages[p]
			want[pg.tier]++
			if got := TierID(m.loc[p]); got != pg.tier {
				t.Fatalf("step %d (%s): page %d in tier %d, reference %d", step, what, p, got, pg.tier)
			}
			if got, want := m.contentIndex(p), uint64(p)+uint64(pg.version)*numPages; got != want {
				t.Fatalf("step %d (%s): page %d's content index %d, reference %d", step, what, p, got, want)
			}
			for _, ct := range m.cts {
				if got := m.ptes[p].rejected&ct.rejectBit != 0; got != slices.Contains(pg.rejected, ct.info.Codec) {
					t.Fatalf("step %d (%s): page %d's %s rejection bit %v, reference %v", step, what, p, ct.info.Codec, got, !got)
				}
			}
		}
		if got := m.TierPages(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): TierPages %v, reference %v", step, what, got, want)
		}
	}
	if len(ref.moves) < 4 { // faults, rejections, same-codec moves, writes to rejected pages
		t.Errorf("the script exercised only %v", ref.moves)
	}
}
