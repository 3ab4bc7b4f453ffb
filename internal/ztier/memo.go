package ztier

import (
	"bytes"
	"sync"
	"sync/atomic"

	"tierscape/internal/corpus"
)

// StoreKey names one PrepareStore outcome by everything that determines
// it. A generated page's bytes are a function of (profile, seed, index)
// alone (corpus.Generator.Fill), and a codec's output is a function of the
// bytes alone — no codec state survives a page (FuzzZstdEncoderReuse,
// FuzzLZ4EncoderIdentical, FuzzDeflateEncoderReuse) — so two prepares with
// equal keys build equal stores, whichever manager, job or tier asks.
type StoreKey struct {
	// Gen is the generator, by value: two generators with one profile and
	// one seed are the same source.
	Gen corpus.Generator
	// Index is the generator index of the page's current bytes.
	Index uint64
	// Codec is the destination tier's codec name.
	Codec string
}

const (
	memoShardBits = 5
	memoShards    = 1 << memoShardBits
	// memoSlabSize is the unit the memo's byte storage grows by: a shard
	// appends compressed objects to its current slab and takes a new one
	// when the next object does not fit, so an insert allocates once per
	// ~60 objects and the budget is spent a slab at a time.
	memoSlabSize = 128 << 10
)

// StoreMemo remembers PrepareStore outcomes of whole generated pages
// (PageSize bytes) by StoreKey, for owners that run many managers over
// the same generators — a figure's jobs. It is safe for concurrent use.
// There is no single-flight: two callers that miss the same key both
// compress, and the first insert stays. Entries are never evicted;
// admission simply stops, for good, the first time a shard cannot get a
// slab inside the byte budget. What a caller reads back is a copy in its
// own buffer — memo storage is never handed out.
//
// A nil *StoreMemo is valid and empty: every lookup misses, every insert
// is dropped.
type StoreMemo struct {
	budget int64
	held   atomic.Int64 // slab bytes taken from the budget
	full   atomic.Bool
	shards [memoShards]memoShard

	// Verify, when set, puts the memo's users in a checking mode meant for
	// tests: on every hit the caller also builds the store the slow way and
	// reports both here (see PreparedStore.Equal). Set it before the memo
	// is shared.
	Verify func(k StoreKey, got, want PreparedStore)
}

type memoShard struct {
	mu            sync.Mutex
	entries       map[StoreKey]memoEntry
	slab          []byte // the current slab: len used, cap memoSlabSize
	lookups, hits int64
}

// memoEntry is one remembered outcome. comp points into a slab and is
// nil for the two outcomes that carry no bytes: a same-filled page, and
// a rejection — CommitStore never reads a rejected store's bytes, so only
// the verdict is kept.
type memoEntry struct {
	comp       []byte
	sameFilled bool
	fillByte   byte
	rejected   bool
}

// NewStoreMemo returns an empty memo that will hold at most budget bytes
// of compressed objects. A budget under one slab admits nothing.
func NewStoreMemo(budget int64) *StoreMemo {
	sm := &StoreMemo{budget: budget}
	sm.full.Store(budget < memoSlabSize)
	return sm
}

func (sm *StoreMemo) shard(k StoreKey) *memoShard {
	return &sm.shards[(k.Index*0x9e3779b97f4a7c15)>>(64-memoShardBits)]
}

// Lookup returns the store PrepareStore would build for k's page, with the
// compressed object copied into dst (as PrepareStore would have compressed
// into it), and whether the memo had it.
func (sm *StoreMemo) Lookup(k StoreKey, dst []byte) (PreparedStore, bool) {
	if sm == nil {
		return PreparedStore{}, false
	}
	sh := sm.shard(k)
	sh.mu.Lock()
	e, ok := sh.entries[k]
	sh.lookups++
	if ok {
		sh.hits++
	}
	sh.mu.Unlock()
	switch {
	case !ok:
		return PreparedStore{}, false
	case e.sameFilled:
		return PreparedStore{sameFilled: true, fillByte: e.fillByte}, true
	case e.rejected:
		return rejectedStore(k.Codec), true
	}
	// Slab bytes are written once, before the entry is published under the
	// shard lock, so the copy needs no lock.
	return PreparedStore{
		comp:       append(dst[:0], e.comp...),
		compressNs: CompressNs(k.Codec, PageSize),
	}, true
}

// Insert remembers ps, which the caller built with PrepareStore from k's
// page, unless k is already there or admission has stopped. ps's bytes are
// copied; the caller keeps its buffer.
func (sm *StoreMemo) Insert(k StoreKey, ps PreparedStore) {
	if sm == nil || sm.full.Load() {
		return
	}
	sh := sm.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.entries[k]; dup {
		return
	}
	e := memoEntry{sameFilled: ps.sameFilled, fillByte: ps.fillByte, rejected: ps.rejected}
	if !ps.sameFilled && !ps.rejected {
		if len(ps.comp) > cap(sh.slab)-len(sh.slab) {
			if sm.held.Add(memoSlabSize) > sm.budget {
				sm.held.Add(-memoSlabSize)
				sm.full.Store(true)
				return
			}
			sh.slab = make([]byte, 0, memoSlabSize)
		}
		n := len(sh.slab)
		sh.slab = append(sh.slab, ps.comp...)
		e.comp = sh.slab[n:len(sh.slab):len(sh.slab)]
	}
	if sh.entries == nil {
		sh.entries = make(map[StoreKey]memoEntry)
	}
	sh.entries[k] = e
}

// MemoStats counts a memo's traffic and size.
type MemoStats struct {
	// Lookups and Hits count Lookup calls and those that found their key.
	Lookups, Hits int64
	// Bytes is the slab storage taken from the budget.
	Bytes int64
}

// Stats sums the shards' counters. Exact once the memo's users are done;
// a sum over moving parts while they run.
func (sm *StoreMemo) Stats() MemoStats {
	var st MemoStats
	if sm == nil {
		return st
	}
	for i := range sm.shards {
		sh := &sm.shards[i]
		sh.mu.Lock()
		st.Lookups += sh.lookups
		st.Hits += sh.hits
		sh.mu.Unlock()
	}
	st.Bytes = sm.held.Load()
	return st
}

// Equal reports whether committing ps and o would be indistinguishable:
// the same classification, the same modeled cost and, for a store that
// lands, the same bytes. A rejected store's bytes are never read, so they
// do not count.
func (ps PreparedStore) Equal(o PreparedStore) bool {
	return ps.sameFilled == o.sameFilled && ps.fillByte == o.fillByte &&
		ps.rejected == o.rejected && ps.compressNs == o.compressNs &&
		(ps.rejected || bytes.Equal(ps.comp, o.comp))
}
