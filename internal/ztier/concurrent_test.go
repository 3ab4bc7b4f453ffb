package ztier

// Tier-level concurrency tests; CI runs them repeatedly under the race
// detector (`go test -race -run Concurrent -count=3`).

import (
	"bytes"
	"sync"
	"testing"

	"tierscape/internal/corpus"
)

// TestConcurrentTierOps hammers one tier with concurrent stores, loads,
// frees, compaction and stat reads. Each goroutine owns a disjoint set of
// page indices, so payloads can be verified byte-for-byte while the pool
// underneath is churned by everyone else.
func TestConcurrentTierOps(t *testing.T) {
	for _, cfg := range []Config{CT1(), CT2()} {
		t.Run(cfg.String(), func(t *testing.T) {
			tier := MustNew(1, cfg)
			g := corpus.NewGenerator(corpus.Dickens, 5)
			const workers, perWorker = 4, 64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					handles := make([]Handle, perWorker)
					for i := 0; i < perWorker; i++ {
						idx := uint64(w*perWorker + i)
						page := g.Page(idx, PageSize)
						h, _, err := tier.Store(page)
						if err != nil {
							t.Errorf("worker %d: store %d: %v", w, idx, err)
							return
						}
						handles[i] = h
					}
					for i := 0; i < perWorker; i++ {
						idx := uint64(w*perWorker + i)
						got, _, err := tier.Load(handles[i], nil)
						if err != nil {
							t.Errorf("worker %d: load %d: %v", w, idx, err)
							return
						}
						if want := g.Page(idx, PageSize); !bytes.Equal(got, want) {
							t.Errorf("worker %d: page %d corrupted under concurrency", w, idx)
							return
						}
					}
					for i := 0; i < perWorker; i += 2 {
						if err := tier.Free(handles[i]); err != nil {
							t.Errorf("worker %d: free: %v", w, err)
							return
						}
					}
				}(w)
			}
			// Observer: compaction and stats interleave with the churn.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					tier.CompactPartial(0)
					s := tier.Stats()
					if s.Pages < 0 || s.PoolPages < 0 {
						t.Errorf("stats went negative: %+v", s)
						return
					}
				}
			}()
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			s := tier.Stats()
			if want := int64(workers * perWorker); s.Stores != want {
				t.Fatalf("stores %d, want %d", s.Stores, want)
			}
			if want := workers * perWorker / 2; s.Pages != want {
				t.Fatalf("%d live pages after frees, want %d", s.Pages, want)
			}
			if s.Faults != int64(workers*perWorker) {
				t.Fatalf("faults %d, want %d", s.Faults, workers*perWorker)
			}
		})
	}
}

// TestConcurrentPrepareCommitMatchesStore pins the prepare/commit split to
// Store: identical handle classification, latency and counters.
func TestConcurrentPrepareCommitMatchesStore(t *testing.T) {
	g := corpus.NewGenerator(corpus.Dickens, 9)
	same := bytes.Repeat([]byte{0xAB}, PageSize)
	incompressible := corpus.NewGenerator(corpus.Random, 9).Page(0, PageSize)
	for _, cfg := range []Config{CT1(), CT2()} {
		a, b := MustNew(1, cfg), MustNew(1, cfg)
		for i, page := range [][]byte{g.Page(1, PageSize), same, incompressible, g.Page(2, PageSize)} {
			ha, la, errA := a.Store(page)
			ps := b.PrepareStore(nil, page, nil)
			hb, lb, errB := b.CommitStore(ps)
			if la != lb {
				t.Fatalf("%s page %d: latency %v != %v", cfg, i, la, lb)
			}
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s page %d: error mismatch %v vs %v", cfg, i, errA, errB)
			}
			if ha.SameFilled() != hb.SameFilled() || ha.CompressedSize() != hb.CompressedSize() {
				t.Fatalf("%s page %d: handle mismatch %+v vs %+v", cfg, i, ha, hb)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%s: stats diverged:\nstore:          %+v\nprepare/commit: %+v", cfg, a.Stats(), b.Stats())
		}
	}
}
