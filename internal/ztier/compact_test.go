package ztier

import (
	"bytes"
	"sync"
	"testing"

	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/zpool"
)

// churnTier fills a zsmalloc-backed tier and frees most objects so the pool
// is left with plenty of sparse zspages for the compactor to drain.
// Returns the surviving handles with their page indices for verification.
func churnTier(t *testing.T, tier *Tier, seed uint64) map[uint64]Handle {
	t.Helper()
	g := corpus.NewGenerator(corpus.Dickens, seed)
	handles := make(map[uint64]Handle)
	for i := uint64(0); i < 512; i++ {
		h, _, err := tier.Store(g.Page(i, PageSize))
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		handles[i] = h
	}
	for i := uint64(0); i < 512; i++ {
		if i%4 == 0 {
			continue // survivor
		}
		if err := tier.Free(handles[i]); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
		delete(handles, i)
	}
	return handles
}

// TestCompactPartialMatchesFullSweep pins the incremental contract: on twin
// tiers with identical churn, repeated small-budget CompactPartial calls
// must reclaim and move exactly what one unbounded sweep does, and the
// total modeled cost must be identical.
func TestCompactPartialMatchesFullSweep(t *testing.T) {
	full, inc := MustNew(1, CT1()), MustNew(1, CT1())
	churnTier(t, full, 7)
	live := churnTier(t, inc, 7)

	fullRes, fullNs := full.CompactPartial(0)
	if fullRes.PagesReclaimed == 0 || fullRes.ObjectsMoved == 0 {
		t.Fatalf("churn produced nothing to compact: %+v", fullRes)
	}

	var incRes zpool.CompactResult
	var incNs float64
	calls := 0
	for {
		r, ns := inc.CompactPartial(3)
		incRes.Add(r)
		incNs += ns
		calls++
		if r.PagesReclaimed == 0 {
			break
		}
		if calls > 10_000 {
			t.Fatal("budgeted compaction never drained the pool")
		}
	}
	if calls < 3 {
		t.Fatalf("budget 3 drained the pool in %d calls; too few to exercise the resume cursor", calls)
	}
	if incRes != fullRes {
		t.Fatalf("incremental total %+v != full sweep %+v", incRes, fullRes)
	}
	if incNs != fullNs {
		t.Fatalf("incremental cost %v != full sweep cost %v", incNs, fullNs)
	}
	if fs, is := full.Stats(), inc.Stats(); fs != is {
		t.Fatalf("stats diverged after compaction:\nfull: %+v\ninc:  %+v", fs, is)
	}

	// Every surviving page must still load intact on both tiers.
	g := corpus.NewGenerator(corpus.Dickens, 7)
	for i, h := range live {
		got, _, err := inc.Load(h, nil)
		if err != nil {
			t.Fatalf("load %d after budgeted compaction: %v", i, err)
		}
		if !bytes.Equal(got, g.Page(i, PageSize)) {
			t.Fatalf("page %d corrupted by budgeted compaction", i)
		}
	}
}

// TestCompactPartialBudgetHonored checks a bounded pass stops near its
// budget instead of sweeping the whole pool: it may overshoot only by the
// pool's final indivisible zspage (at most zsMaxZspageLen-1 extra pages
// past the last slice boundary).
func TestCompactPartialBudgetHonored(t *testing.T) {
	tier := MustNew(1, CT1())
	churnTier(t, tier, 11)
	twin := MustNew(1, CT1())
	churnTier(t, twin, 11)
	fullRes, _ := twin.CompactPartial(0)

	const budget = 2
	r, ns := tier.CompactPartial(budget)
	if r.PagesReclaimed == 0 {
		t.Fatal("bounded pass reclaimed nothing on a churned pool")
	}
	if r.PagesReclaimed >= fullRes.PagesReclaimed {
		t.Fatalf("budget %d reclaimed %d of %d reclaimable pages — not bounded at all",
			budget, r.PagesReclaimed, fullRes.PagesReclaimed)
	}
	if max := budget + 3; r.PagesReclaimed > max {
		t.Fatalf("budget %d reclaimed %d pages, want <= %d (one zspage of overshoot)",
			budget, r.PagesReclaimed, max)
	}
	if ns <= 0 {
		t.Fatalf("bounded pass moved %d objects but charged %v ns", r.ObjectsMoved, ns)
	}
}

// TestCompactCostCharged pins the compaction cost model: the charged
// nanoseconds must equal the per-object pool lookup+store and media costs
// for exactly the objects and bytes the pool reports moving — not a
// full-page guess per reclaimed page.
func TestCompactCostCharged(t *testing.T) {
	for _, cfg := range []Config{CT1(), CT2()} {
		t.Run(cfg.String(), func(t *testing.T) {
			tier := MustNew(1, cfg)
			churnTier(t, tier, 13)
			r, ns := tier.CompactPartial(0)
			if r.ObjectsMoved == 0 {
				t.Fatalf("nothing moved: %+v", r)
			}
			p := media.Props(cfg.Media)
			perObject := PoolLookupNs(cfg.Pool) + PoolStoreNs(cfg.Pool) + 2*p.LoadNs
			want := float64(r.ObjectsMoved)*perObject +
				(p.ReadNsPerKB+p.WriteNsPerKB)*float64(r.BytesMoved)/1024
			if ns != want {
				t.Fatalf("compaction charged %v ns, want %v for %d objects / %d bytes",
					ns, want, r.ObjectsMoved, r.BytesMoved)
			}

			// A second sweep has nothing to move and must charge zero.
			r2, ns2 := tier.CompactPartial(0)
			if r2 != (zpool.CompactResult{}) || ns2 != 0 {
				t.Fatalf("idle sweep did work: %+v cost %v", r2, ns2)
			}
		})
	}
}

// TestCompactNoopPoolsChargeNothing: zbud and z3fold have no compactor, so
// compaction must report zero work and zero cost at any budget.
func TestCompactNoopPoolsChargeNothing(t *testing.T) {
	g := corpus.NewGenerator(corpus.Dickens, 17)
	for _, pool := range []string{"zbud", "z3fold"} {
		tier := MustNew(1, Config{Codec: "lzo", Pool: pool, Media: media.DRAM})
		for i := uint64(0); i < 32; i++ {
			if _, _, err := tier.Store(g.Page(i, PageSize)); err != nil {
				t.Fatalf("%s: store: %v", pool, err)
			}
		}
		for _, budget := range []int{0, 1, 1 << 20} {
			if r, ns := tier.CompactPartial(budget); r != (zpool.CompactResult{}) || ns != 0 {
				t.Fatalf("%s: CompactPartial(%d) = %+v cost %v, want zero", pool, budget, r, ns)
			}
		}
	}
}

// TestConcurrentCompactPartialWithFaults races budgeted compaction slices
// against stores, faults and frees. Skipped under -short; CI runs it with
// -race. Correctness bar: no data race, every surviving page loads intact,
// and the pool's accounting stays consistent.
func TestConcurrentCompactPartialWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	tier := MustNew(1, CT1())
	g := corpus.NewGenerator(corpus.Dickens, 23)
	const workers, perWorker, rounds = 4, 48, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			handles := make([]Handle, perWorker)
			for round := 0; round < rounds; round++ {
				base := uint64(round*workers*perWorker + w*perWorker)
				for i := 0; i < perWorker; i++ {
					h, _, err := tier.Store(g.Page(base+uint64(i), PageSize))
					if err != nil {
						t.Errorf("worker %d: store: %v", w, err)
						return
					}
					handles[i] = h
				}
				for i := 0; i < perWorker; i++ {
					got, _, err := tier.Load(handles[i], nil)
					if err != nil {
						t.Errorf("worker %d: load: %v", w, err)
						return
					}
					if want := g.Page(base+uint64(i), PageSize); !bytes.Equal(got, want) {
						t.Errorf("worker %d: page %d corrupted under compaction", w, base+uint64(i))
						return
					}
				}
				// Free most pages so the compactor always has donors.
				for i := 0; i < perWorker; i++ {
					if i%4 == 0 {
						continue
					}
					if err := tier.Free(handles[i]); err != nil {
						t.Errorf("worker %d: free: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	// Compactor: small budgeted slices, constantly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			r, ns := tier.CompactPartial(1 + i%4)
			if r.ObjectsMoved > 0 && ns <= 0 {
				t.Errorf("moved %d objects for free", r.ObjectsMoved)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	s := tier.Stats()
	if want := workers * perWorker * rounds / 4; s.Pages != want {
		t.Fatalf("%d live pages, want %d", s.Pages, want)
	}
	// After the dust settles an unbounded sweep must leave a second sweep
	// with zero work (the cursor cannot strand reclaimable zspages).
	tier.CompactPartial(0)
	if r, ns := tier.CompactPartial(0); r != (zpool.CompactResult{}) || ns != 0 {
		t.Fatalf("sweep after quiesce+sweep still found work: %+v cost %v", r, ns)
	}
}
