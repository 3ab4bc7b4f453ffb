package ztier

import (
	"bytes"
	"sync"
	"testing"

	"tierscape/internal/corpus"
)

// memoFixture prepares the first n pages of a Mixed generator (nci, prose,
// binary and incompressible pages in turn) and of the Zero profile for
// tier t: the stores PrepareStore builds and the keys that name them.
func memoFixture(t *Tier, n int) (keys []StoreKey, stores []PreparedStore) {
	page := make([]byte, PageSize)
	for _, g := range []*corpus.Generator{corpus.NewGenerator(corpus.Mixed, 7), corpus.NewGenerator(corpus.Zero, 7)} {
		for i := 0; i < n; i++ {
			g.Fill(uint64(i), page)
			keys = append(keys, StoreKey{Gen: *g, Index: uint64(i), Codec: t.cfg.Codec})
			stores = append(stores, t.PrepareStore(nil, page, nil))
		}
	}
	return keys, stores
}

// TestStoreMemoRoundTrip: what comes back is the store that went in —
// compressed, same-filled or rejected — copied into the caller's buffer;
// the memo's own bytes never leave it, and a nil memo is an empty one.
func TestStoreMemoRoundTrip(t *testing.T) {
	tier := MustNew(0, CT2())
	keys, stores := memoFixture(tier, 64)
	sm := NewStoreMemo(1 << 30)
	kinds := map[string]int{}
	for i, k := range keys {
		if _, ok := sm.Lookup(k, nil); ok {
			t.Fatalf("key %d: hit before insert", i)
		}
		sm.Insert(k, stores[i])
	}
	dst := make([]byte, 0, PageSize)
	for i, k := range keys {
		got, ok := sm.Lookup(k, dst)
		if !ok || !got.Equal(stores[i]) {
			t.Fatalf("key %d: hit=%v, store differs from the one inserted", i, ok)
		}
		switch {
		case got.sameFilled:
			kinds["same-filled"]++
		case got.rejected:
			kinds["rejected"]++
			if got.comp != nil {
				t.Errorf("key %d: a rejected entry handed back %d bytes, want only the verdict", i, len(got.comp))
			}
		default:
			kinds["compressed"]++
			if &got.comp[0] != &dst[:1][0] {
				t.Errorf("key %d: compressed object is not in the caller's buffer", i)
			}
			// The caller may do what it likes with its copy.
			for j := range got.comp {
				got.comp[j] = 0xff
			}
			again, _ := sm.Lookup(k, nil)
			if !again.Equal(stores[i]) {
				t.Fatalf("key %d: scribbling on a looked-up store changed the memo", i)
			}
		}
	}
	for _, kind := range []string{"same-filled", "rejected", "compressed"} {
		if kinds[kind] == 0 {
			t.Errorf("fixture exercised no %s store", kind)
		}
	}
	if st := sm.Stats(); st.Lookups != int64(3*len(keys)-kinds["same-filled"]-kinds["rejected"]) || st.Hits != st.Lookups-int64(len(keys)) {
		t.Errorf("stats = %+v after %d misses", st, len(keys))
	}

	// A different codec, generator or index is a different key.
	k := keys[1]
	for name, other := range map[string]StoreKey{
		"codec": {Gen: k.Gen, Index: k.Index, Codec: "lzo"},
		"seed":  {Gen: *corpus.NewGenerator(corpus.Mixed, 8), Index: k.Index, Codec: k.Codec},
		"index": {Gen: k.Gen, Index: k.Index + 1<<32, Codec: k.Codec},
	} {
		if _, ok := sm.Lookup(other, nil); ok {
			t.Errorf("a key differing only in its %s hit", name)
		}
	}

	var none *StoreMemo
	none.Insert(keys[0], stores[0])
	if _, ok := none.Lookup(keys[0], nil); ok || none.Stats() != (MemoStats{}) {
		t.Error("nil memo is not empty")
	}
}

// TestStoreMemoBudget: storage is taken a slab at a time and admission
// stops for good at the budget — entries already in keep answering.
func TestStoreMemoBudget(t *testing.T) {
	tier := MustNew(0, CT1())
	keys, stores := memoFixture(tier, 512)
	for _, c := range []struct {
		budget    int64
		wantBytes int64
	}{
		{0, 0},
		{memoSlabSize - 1, 0},
		{memoSlabSize, memoSlabSize},
		{3 * memoSlabSize, 3 * memoSlabSize},
		{1 << 30, 0}, // everything fits; checked against the payload below
	} {
		sm := NewStoreMemo(c.budget)
		for i, k := range keys {
			sm.Insert(k, stores[i])
		}
		var hits, payload int64
		for i, k := range keys {
			got, ok := sm.Lookup(k, nil)
			if !ok {
				continue
			}
			hits++
			payload += int64(len(got.comp))
			if !got.Equal(stores[i]) {
				t.Fatalf("budget %d: key %d answers with a different store", c.budget, i)
			}
		}
		st := sm.Stats()
		switch {
		case c.budget < memoSlabSize:
			if hits != 0 || st.Bytes != 0 {
				t.Errorf("budget %d: %d entries, %d bytes held; want none", c.budget, hits, st.Bytes)
			}
		case c.budget == 1<<30:
			if hits != int64(len(keys)) || st.Bytes < payload || st.Bytes > payload+memoShards*memoSlabSize {
				t.Errorf("unbounded: %d of %d entries, %d bytes held for %d of payload", hits, len(keys), st.Bytes, payload)
			}
		default:
			if st.Bytes != c.wantBytes || payload > st.Bytes || hits == 0 || hits == int64(len(keys)) {
				t.Errorf("budget %d: %d of %d entries, %d bytes of payload, %d held; want admission to stop part-way at %d",
					c.budget, hits, len(keys), payload, st.Bytes, c.wantBytes)
			}
		}
		if st.Hits != hits {
			t.Errorf("budget %d: stats count %d hits, saw %d", c.budget, st.Hits, hits)
		}
	}
}

// TestStoreMemoConcurrent: eight goroutines look up and insert one key
// set at once, in different orders. Racing missers both insert; whichever
// lands, every answer is the right store. Runs under -race in CI.
func TestStoreMemoConcurrent(t *testing.T) {
	tier := MustNew(0, CT1())
	keys, stores := memoFixture(tier, 256)
	sm := NewStoreMemo(2 * memoSlabSize) // runs out while they race
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]byte, 0, PageSize)
			for round := 0; round < 4; round++ {
				for j := range keys {
					i := (j*(2*g+1) + 31*g) % len(keys)
					got, ok := sm.Lookup(keys[i], dst)
					if !ok {
						// Insert from a private copy, as a job does from its own buffer.
						ps := stores[i]
						ps.comp = bytes.Clone(ps.comp)
						sm.Insert(keys[i], ps)
						continue
					}
					if !got.Equal(stores[i]) {
						t.Errorf("goroutine %d: key %d answers with a different store", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := sm.Stats(); st.Hits == 0 || st.Hits == st.Lookups || st.Bytes != 2*memoSlabSize {
		t.Errorf("stats = %+v; want hits, misses and a spent budget", st)
	}
}
