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

// TestCompactCostCharged pins the compaction cost model: the charged
// nanoseconds must equal the per-object pool lookup+store and media costs
// for exactly the objects and bytes the pool reports moving — not a
// full-page guess per reclaimed page. Every surviving handle still loads
// its page after the objects behind it moved.
func TestCompactCostCharged(t *testing.T) {
	for _, cfg := range []Config{CT1(), CT2()} {
		t.Run(cfg.String(), func(t *testing.T) {
			tier := MustNew(1, cfg)
			live := churnTier(t, tier, 13)
			r, ns := tier.Compact()
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

			// A second pass has nothing to move and must charge zero.
			r2, ns2 := tier.Compact()
			if r2 != (zpool.CompactResult{}) || ns2 != 0 {
				t.Fatalf("idle pass did work: %+v cost %v", r2, ns2)
			}
			g := corpus.NewGenerator(corpus.Dickens, 13)
			for i, h := range live {
				if got, _, err := tier.Load(h, nil); err != nil || !bytes.Equal(got, g.Page(i, PageSize)) {
					t.Fatalf("page %d lost or corrupted by compaction: %v", i, err)
				}
			}
		})
	}
}

// TestCompactNoopPoolsChargeNothing: zbud and z3fold have no compactor, so
// compaction must report zero work and zero cost.
func TestCompactNoopPoolsChargeNothing(t *testing.T) {
	g := corpus.NewGenerator(corpus.Dickens, 17)
	for _, pool := range []string{"zbud", "z3fold"} {
		tier := MustNew(1, Config{Codec: "lzo", Pool: pool, Media: media.DRAM})
		for i := uint64(0); i < 32; i++ {
			if _, _, err := tier.Store(g.Page(i, PageSize)); err != nil {
				t.Fatalf("%s: store: %v", pool, err)
			}
		}
		if r, ns := tier.Compact(); r != (zpool.CompactResult{}) || ns != 0 {
			t.Fatalf("%s: Compact = %+v cost %v, want zero", pool, r, ns)
		}
	}
}

// TestConcurrentCompactWithFaults races compaction passes against stores,
// faults and frees: each pass holds the tier lock, so the others wait for
// it. Skipped under -short; CI runs it with -race. Correctness bar: no
// data race, every surviving page loads intact, and the pool's accounting
// stays consistent.
func TestConcurrentCompactWithFaults(t *testing.T) {
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
	// Compactor: one pass after another.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			r, ns := tier.Compact()
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
	// After the dust settles one pass must leave a second with zero work.
	tier.Compact()
	if r, ns := tier.Compact(); r != (zpool.CompactResult{}) || ns != 0 {
		t.Fatalf("pass after quiesce+pass still found work: %+v cost %v", r, ns)
	}
}
