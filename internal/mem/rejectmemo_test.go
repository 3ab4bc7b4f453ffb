package mem

import (
	"testing"
	"unsafe"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// TestPTESize: the rejection bits live in padding the entry already had.
// A page table is the manager's whole retained heap; a 41st byte would be
// a 48th.
func TestPTESize(t *testing.T) {
	if got := unsafe.Sizeof(pte{}); got != 40 {
		t.Fatalf("unsafe.Sizeof(pte{}) = %d, want 40", got)
	}
}

// countingSource counts the pages regenerated through it.
type countingSource struct {
	src   corpus.Source
	fills []uint64 // page indexes, in call order
}

func (c *countingSource) Fill(pageIdx uint64, buf []byte) {
	c.fills = append(c.fills, pageIdx)
	c.src.Fill(pageIdx, buf)
}

// rejectMemoManager is one region of the given content over three
// compressed tiers: 1 and 2 share a codec, 3 has another.
func rejectMemoManager(t *testing.T, prof corpus.Profile) (*Manager, *countingSource) {
	t.Helper()
	src := &countingSource{src: corpus.NewGenerator(prof, 5)}
	m, err := NewManager(Config{
		NumPages: RegionPages,
		Content:  src,
		CompressedTiers: []ztier.Config{
			{Codec: "lzo", Pool: "zsmalloc", Media: media.DRAM},
			{Codec: "lzo", Pool: "zbud", Media: media.DRAM},
			{Codec: "lz4", Pool: "zbud", Media: media.DRAM},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, src
}

// TestRejectMemoElidesRefill: a remembered rejection saves the host the
// refill and the compression and nothing else — the move's result, the
// tier's counters and the manager's advance exactly as on the first
// attempt. It holds for one version of one page under one codec.
func TestRejectMemoElidesRefill(t *testing.T) {
	m, src := rejectMemoManager(t, corpus.Random)
	type outcome struct {
		res         MigrationResult
		tierRejects int64
		rejects     int64
		fills       int
	}
	// demote moves the region towards dest through the given path and
	// reports what it did and what advanced.
	demote := func(m *Manager, src *countingSource, dest TierID, split bool) outcome {
		t.Helper()
		before, err := m.CompressedTierStats(dest)
		if err != nil {
			t.Fatal(err)
		}
		rejects := m.Counters().Rejects
		src.fills = src.fills[:0]
		var res MigrationResult
		if split {
			pr, perr := m.PrepareRegionMigration(0, dest)
			if perr != nil {
				t.Fatal(perr)
			}
			res, err = m.CommitRegionMigration(pr)
		} else {
			res, err = m.MigrateRegion(0, dest)
		}
		if err != nil {
			t.Fatal(err)
		}
		after, _ := m.CompressedTierStats(dest)
		return outcome{res, after.Rejects - before.Rejects, m.Counters().Rejects - rejects, len(src.fills)}
	}

	first := demote(m, src, 1, true)
	if want := (outcome{MigrationResult{Rejected: RegionPages, LatencyNs: first.res.LatencyNs}, RegionPages, RegionPages, RegionPages}); first != want || first.res.LatencyNs <= 0 {
		t.Fatalf("first demotion of a random region: %+v, want %+v", first, want)
	}
	remembered := first
	remembered.fills = 0
	for _, split := range []bool{true, false} {
		if got := demote(m, src, 1, split); got != remembered {
			t.Errorf("repeat demotion (split=%v): %+v, want %+v", split, got, remembered)
		}
	}

	// A tier with the same codec shares the verdict; what it reports is
	// what it reports to a manager that remembers nothing.
	fresh, freshSrc := rejectMemoManager(t, corpus.Random)
	want := demote(fresh, freshSrc, 2, true)
	want.fills = 0
	if got := demote(m, src, 2, true); got != want {
		t.Errorf("same codec, other tier: %+v, want %+v", got, want)
	}
	// Another codec has not seen the pages.
	fresh, freshSrc = rejectMemoManager(t, corpus.Random)
	if got, want := demote(m, src, 3, true), demote(fresh, freshSrc, 3, true); got != want || got.fills != RegionPages {
		t.Errorf("other codec: %+v, want %+v", got, want)
	}

	// A write makes new bytes: exactly that page is filled again, at its
	// new version, and every codec's verdict on it is gone.
	const written = PageID(77)
	if _, err := m.Access(written, true); err != nil {
		t.Fatal(err)
	}
	got := demote(m, src, 1, true)
	if got.fills != 1 || src.fills[0] != uint64(written)+1*RegionPages {
		t.Errorf("after a write to page %d: %d pages refilled, the first at index %d; want that page alone, at version 1", written, got.fills, src.fills[0])
	}
	got.fills = 0
	if got != remembered {
		t.Errorf("after a write: %+v, want %+v", got, remembered)
	}
	if got := demote(m, src, 3, true); got.fills != 1 {
		t.Errorf("after a write, other codec: %d pages refilled, want 1", got.fills)
	}
}
