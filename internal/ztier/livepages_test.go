package ztier

import (
	"bytes"
	"testing"

	"tierscape/internal/corpus"
)

// reconcile checks the lock-free live accounting against the locked
// Stats() snapshot. LivePoolPages feeds the TCO sampling between window
// boundaries, so any drift from the authoritative pool stats is a
// reporting bug even if placement stays correct.
func reconcile(t *testing.T, tier *Tier, when string) {
	t.Helper()
	if got, want := tier.LivePoolPages(), tier.Stats().PoolPages; got != want {
		t.Fatalf("%s: LivePoolPages = %d, Stats().PoolPages = %d", when, got, want)
	}
}

// TestLiveAccountingReconciles drives a tier through every path that
// touches the live footprint — compressed stores, same-filled stores,
// incompressible rejects, pool-full rejects, frees, and budgeted
// compaction — and reconciles against Stats() after each phase.
func TestLiveAccountingReconciles(t *testing.T) {
	tier := MustNew(1, CT1())
	reconcile(t, tier, "empty tier")

	g := corpus.NewGenerator(corpus.Dickens, 7)
	var handles []Handle
	for i := 0; i < 64; i++ {
		h, _, err := tier.Store(g.Page(uint64(i), PageSize))
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		handles = append(handles, h)
	}
	reconcile(t, tier, "after compressed stores")

	// Same-filled pages have zero pool footprint.
	for i := 0; i < 8; i++ {
		h, _, err := tier.Store(bytes.Repeat([]byte{byte(i)}, PageSize))
		if err != nil {
			t.Fatalf("same-filled store %d: %v", i, err)
		}
		if !h.SameFilled() {
			t.Fatalf("store %d: uniform page not same-filled", i)
		}
		handles = append(handles, h)
	}
	reconcile(t, tier, "after same-filled stores")

	// Incompressible rejects must not move the footprint.
	r := corpus.NewGenerator(corpus.Random, 9)
	if _, _, err := tier.Store(r.Page(0, PageSize)); err != ErrIncompressible {
		t.Fatalf("random store: err = %v, want ErrIncompressible", err)
	}
	reconcile(t, tier, "after incompressible reject")

	// Pool-full rejects likewise leave the accounting untouched.
	tier.SetMaxPoolPages(tier.Stats().PoolPages)
	if _, _, err := tier.Store(g.Page(1000, PageSize)); err != ErrTierFull {
		t.Fatalf("clamped store: err = %v, want ErrTierFull", err)
	}
	tier.SetMaxPoolPages(0)
	reconcile(t, tier, "after pool-full reject")

	// Free every other compressed object to shred the pool, then a
	// same-filled one (which has no pool presence to reclaim).
	for i := 0; i < 64; i += 2 {
		if err := tier.Free(handles[i]); err != nil {
			t.Fatalf("free %d: %v", i, err)
		}
	}
	if err := tier.Free(handles[64]); err != nil {
		t.Fatalf("free same-filled: %v", err)
	}
	reconcile(t, tier, "after frees")

	// Budgeted compaction relocates objects and shrinks the pool; the
	// live footprint must track the post-compaction pool exactly.
	before := tier.Stats().PoolPages
	res, _ := tier.CompactPartial(4)
	reconcile(t, tier, "after partial compaction")
	full, _ := tier.CompactPartial(0)
	reconcile(t, tier, "after full compaction")
	if res.PagesReclaimed+full.PagesReclaimed == 0 {
		t.Fatalf("compaction reclaimed nothing (pool was %d pages); test is vacuous", before)
	}
}
