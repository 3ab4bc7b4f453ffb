package sim

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/mem"
	"tierscape/internal/policy"
	"tierscape/internal/ztier"
)

// spanManager is DRAM, NVMM, CT-1 and CT-2 over three full regions and a
// fourth of two spans, its pages drawn from src.
func spanManager(t *testing.T, src *pagedSource) *mem.Manager {
	t.Helper()
	src.Source = corpus.NewGenerator(corpus.Dickens, 99)
	m, err := mem.NewManager(mem.Config{
		NumPages:        3*mem.RegionPages + 2*mem.SpanPages,
		Content:         src,
		ByteTiers:       []media.Kind{media.NVMM},
		CompressedTiers: []ztier.Config{ztier.CT1(), ztier.CT2()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// serialApply is the apply at its plainest: each move's spans prepared
// and committed back to back on one goroutine, in plan order, into the
// move's one running result; a move that fails reads zero and the rest of
// its spans never commit.
func serialApply(m *mem.Manager, moves []policy.Move) ([]moveOutcome, error) {
	out := make([]moveOutcome, len(moves))
	sc := new(mem.MigrationScratch)
	var first error
	for i, mv := range moves {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("move %d panicked: %v", i, r)
				}
			}()
			for j := 0; j < spans(m, mv); j++ {
				pr, err := m.PrepareSpanMigration(mv.Region, j, mv.Dest, sc)
				if err == nil {
					err = m.CommitMigrationInto(pr, sc, &out[i].MigrationResult)
				}
				if errors.Is(err, mem.ErrTierFull) {
					out[i].Full = true
				} else if err != nil {
					return err
				}
			}
			return nil
		}()
		if err != nil {
			out[i] = moveOutcome{}
			if first == nil {
				first = err
			}
		}
	}
	return out, first
}

// pageTable is what the manager shows of its page table: every region's
// residency, the tiers' page counts and pool statistics, and the
// counters.
func pageTable(t *testing.T, m *mem.Manager) string {
	t.Helper()
	var b strings.Builder
	for r := int64(0); r < m.NumRegions(); r++ {
		fmt.Fprintln(&b, "region", r, m.RegionResidency(mem.RegionID(r)))
	}
	fmt.Fprintln(&b, m.TierPages(), m.Counters())
	for _, tier := range m.Tiers()[2:] {
		st, err := m.CompressedTierStats(tier.ID)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %+v\n", tier.Name, st)
	}
	return b.String()
}

// TestSpanBoundaryIdentity: at PT 1, 2 and 8 the span-by-span apply
// leaves what the serial apply leaves — outcomes, events, error and page
// table — on a plan that moves regions twice, back to back (a later
// move's spans are prepared before the earlier move's commit, and a
// two-span region's are stale by then), on a bounded tier that fills
// inside a region, and on a content source that panics in span 3 of a
// move. Without an error each move's latency is also the page-order sum
// of one whole-region commit, bit for bit.
func TestSpanBoundaryIdentity(t *testing.T) {
	const ct1, ct2 = mem.TierID(2), mem.TierID(3)
	for _, c := range []struct {
		name      string
		panicPage int64
		poolLimit int
		moves     []policy.Move
		check     func(t *testing.T, out []moveOutcome, err error)
	}{
		{"same-region-twice", -1, 0, []policy.Move{
			{Region: 3, Dest: ct1}, {Region: 3, Dest: ct2}, {Region: 0, Dest: ct1}, {Region: 0, Dest: 1},
			{Region: 3, Dest: 1}, {Region: 0, Dest: mem.DRAMTier},
		}, func(t *testing.T, out []moveOutcome, err error) {
			if err != nil || out[1].Moved != 2*mem.SpanPages || out[3].Moved != mem.RegionPages {
				t.Fatalf("serial apply: %v, %+v; want both second moves whole", err, out)
			}
		}},
		{"tier-fills-mid-region", -1, 120, []policy.Move{
			{Region: 0, Dest: ct1}, {Region: 3, Dest: ct1}, {Region: 0, Dest: 1},
		}, func(t *testing.T, out []moveOutcome, err error) {
			if err != nil || out[0].Moved <= mem.SpanPages || out[0].Moved >= mem.RegionPages-mem.SpanPages || out[0].Rejected == 0 {
				t.Fatalf("serial apply: %v, move 0 %+v; want CT-1 full in a middle span, the rest fallen back", err, out[0])
			}
		}},
		{"panic-in-span-3", mem.RegionPages + 3*mem.SpanPages + 5, 0, []policy.Move{
			{Region: 0, Dest: ct1}, {Region: 1, Dest: ct2}, {Region: 3, Dest: ct1},
		}, func(t *testing.T, out []moveOutcome, err error) {
			if err == nil || out[1] != (moveOutcome{}) || out[2].Moved != 2*mem.SpanPages {
				t.Fatalf("serial apply: %v, %+v; want move 1 failed and zero, move 2 whole", err, out)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			build := func() *mem.Manager {
				m := spanManager(t, &pagedSource{panicPage: c.panicPage})
				if c.poolLimit > 0 {
					if err := m.SetCompressedTierLimit(ct1, c.poolLimit); err != nil {
						t.Fatal(err)
					}
				}
				return m
			}
			ref := build()
			want, wantErr := serialApply(ref, c.moves)
			c.check(t, want, wantErr)
			wantTable := pageTable(t, ref)
			if wantErr == nil {
				whole := build()
				for i, mv := range c.moves {
					mr, err := whole.MigrateRegion(mv.Region, mv.Dest)
					if err != nil && !errors.Is(err, mem.ErrTierFull) {
						t.Fatal(err)
					}
					if mr != want[i].MigrationResult {
						t.Fatalf("move %d: span by span %+v, whole region %+v", i, want[i].MigrationResult, mr)
					}
				}
			}
			for _, workers := range []int{1, 2, 8} {
				m := build()
				got, err := applyMoves(m, c.moves, make([]mem.MigrationScratch, workers), workers, nil)
				if (err == nil) != (wantErr == nil) || err != nil && !strings.Contains(err.Error(), "push thread panicked on move 1 (region 1 to tier 3)") {
					t.Fatalf("PT %d: error %v, serial apply's %v", workers, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("PT %d: outcomes differ from the serial apply's:\n%+v\nwant\n%+v", workers, got, want)
				}
				if !reflect.DeepEqual(moveEvents(1, c.moves, got), moveEvents(1, c.moves, want)) {
					t.Fatalf("PT %d: events differ from the serial apply's", workers)
				}
				if table := pageTable(t, m); table != wantTable {
					t.Fatalf("PT %d: page table differs from the serial apply's:\n%s\nwant\n%s", workers, table, wantTable)
				}
			}
		})
	}
}
