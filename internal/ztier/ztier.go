// Package ztier composes compression codecs (internal/compress), pool
// managers (internal/zpool) and backing media (internal/media) into
// compressed memory tiers — the paper's core building block. It also
// defines the characterization tier set C1…C12 (§5, Figure 2) and the
// production tiers CT-1 (GSwap: lzo/zsmalloc/DRAM) and CT-2 (TMO:
// zstd/zsmalloc/Optane).
//
// A tier accepts 4 KB pages, compresses them, stores the compressed object
// in its pool, and reports modeled latencies for every operation. Pages
// whose compressed form would not fit a pool page are rejected
// (ErrIncompressible), mirroring zswap's rejection of incompressible data.
//
// A Tier is safe for concurrent use: a per-tier RWMutex serializes pool
// access (the zpool managers are single-threaded by contract) and the
// counters are atomics. For deterministic concurrency the store path also
// splits into a pure PrepareStore (compression, no shared state) and a
// serializable CommitStore (pool insertion + counters), so a
// caller can run the expensive compute in parallel and commit in a fixed
// order.
package ztier

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"tierscape/internal/compress"
	"tierscape/internal/media"
	"tierscape/internal/zpool"
)

// PageSize is the page granularity tiers operate on.
const PageSize = zpool.PageSize

// ErrIncompressible is returned by Store when a page does not compress
// well enough to be worth storing (zswap rejects such pages; footnote 1 of
// the paper notes the compression ratio therefore cannot exceed 1).
var ErrIncompressible = errors.New("ztier: page rejected as incompressible")

// ErrCorruptObject is returned by a load whose pool object is not the
// one stored under its handle: its checksum no longer matches.
var ErrCorruptObject = errors.New("ztier: corrupt object")

// castagnoli is the CRC-32C table objects are checksummed with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config selects the three components of a compressed tier.
type Config struct {
	// Codec is the compression algorithm name (see compress.Lookup).
	Codec string
	// Pool is the pool manager name (see zpool.New).
	Pool string
	// Media is the backing medium for pool pages.
	Media media.Kind
}

// String encodes the config in the paper's Figure 2 notation, e.g.
// "ZB-L4-DR" for zbud/lz4/DRAM.
func (c Config) String() string {
	return fmt.Sprintf("%s-%s-%s", poolCode(c.Pool), codecCode(c.Codec), c.Media)
}

func poolCode(p string) string {
	switch p {
	case "zsmalloc":
		return "ZS"
	case "zbud":
		return "ZB"
	case "z3fold":
		return "Z3"
	default:
		return p
	}
}

func codecCode(c string) string {
	switch c {
	case "lz4":
		return "L4"
	case "lz4hc":
		return "HC"
	case "lzo":
		return "LO"
	case "lzo-rle":
		return "LR"
	case "deflate":
		return "DE"
	case "zstd":
		return "ZS"
	default:
		return c
	}
}

// Handle identifies a page stored in a tier.
type Handle struct {
	pool zpool.Handle
	size int // compressed size
	// sameFilled marks a page of one repeated byte stored without any
	// pool allocation (zswap's same-filled-page optimization); fillByte
	// is the repeated value.
	sameFilled bool
	fillByte   byte
	// sum is the object's CRC-32C, taken at store and verified by every
	// load. It sits in the padding fillByte leaves: a Handle stays 24
	// bytes.
	sum uint32
}

// CompressedSize returns the stored object's compressed size in bytes
// (0 for same-filled pages, which occupy no pool space).
func (h Handle) CompressedSize() int {
	if h.sameFilled {
		return 0
	}
	return h.size
}

// SameFilled reports whether the page was stored via the same-filled-page
// path.
func (h Handle) SameFilled() bool { return h.sameFilled }

// Stats aggregates a tier's counters.
type Stats struct {
	// Pages is the number of (uncompressed-page) objects stored.
	Pages int
	// CompressedBytes is the total compressed payload.
	CompressedBytes int64
	// PoolPages is the tier's physical footprint in pool pages.
	PoolPages int
	// Faults counts pages loaded out of the tier: by a fault, or by a
	// move out of it that did not take the same-codec fast path.
	Faults int64
	// Stores counts pages compressed into the tier.
	Stores int64
	// Rejects counts pages rejected as incompressible.
	Rejects int64
	// SameFilled counts live pages stored via the same-filled-page
	// optimization (zero pool footprint).
	SameFilled int64
}

// PoolBytes returns the tier's physical footprint in bytes.
func (s Stats) PoolBytes() int64 { return int64(s.PoolPages) * PageSize }

// Fragmentation returns the pool's internal fragmentation: the fraction
// of the physical footprint not holding compressed payload (0 for an
// empty pool). Same-filled pages cost no footprint, so they never count
// as fragmentation.
func (s Stats) Fragmentation() float64 {
	pb := s.PoolBytes()
	if pb == 0 {
		return 0
	}
	f := 1 - float64(s.CompressedBytes)/float64(pb)
	if f < 0 {
		return 0
	}
	return f
}

// Ratio returns the payload compression ratio — compressed bytes over the
// logical bytes stored — or 0 for an empty tier. Same-filled pages count
// as logical pages with (near-)zero payload, so they improve the ratio,
// matching what the kernel's zswap accounting reports.
func (s Stats) Ratio() float64 {
	if s.Pages == 0 {
		return 0
	}
	return float64(s.CompressedBytes) / (float64(s.Pages) * PageSize)
}

// Tier is one compressed memory tier.
type Tier struct {
	cfg   Config
	id    int
	codec compress.Codec

	// mu guards the pool and the scratch buffer. Reads of pool state
	// (Load, Stats) take the read side; anything that mutates pool layout
	// (Store, Free, Compact) takes the write side.
	mu   sync.RWMutex
	pool zpool.Pool
	// scratch and codecState serve the fused Store path, under mu.
	scratch    []byte
	codecState compress.Scratch

	faults     atomic.Int64
	stores     atomic.Int64
	rejects    atomic.Int64
	sameFilled atomic.Int64

	// Lock-free footprint accounting, maintained at commit time:
	// livePoolPages mirrors the pool's physical page count. Every
	// successful commit, free and compaction pass updates it under the
	// tier lock; readers need no lock at all, so telemetry can sample a
	// tier mid-commit without stalling the migration pipeline behind the
	// pool mutex.
	livePoolPages atomic.Int64
}

// LivePoolPages returns the tier's physical footprint in pool pages as of
// the last commit, free or compaction pass, without taking the tier
// lock. Equals Stats().PoolPages at quiescence.
func (t *Tier) LivePoolPages() int { return int(t.livePoolPages.Load()) }

// sameFilledByte reports whether data consists of one repeated byte.
func sameFilledByte(data []byte) (byte, bool) {
	if len(data) == 0 {
		return 0, false
	}
	b := data[0]
	for _, v := range data[1:] {
		if v != b {
			return 0, false
		}
	}
	return b, true
}

// New creates a tier from cfg. The id is the caller's tier identifier
// (stored in struct-page analogue by the memory manager).
func New(id int, cfg Config) (*Tier, error) {
	codec, err := compress.Lookup(cfg.Codec)
	if err != nil {
		return nil, err
	}
	pool, err := zpool.New(cfg.Pool)
	if err != nil {
		return nil, err
	}
	if _, err := media.ParseKind(cfg.Media.String()); err != nil {
		return nil, err
	}
	return &Tier{cfg: cfg, id: id, codec: codec, pool: pool}, nil
}

// MustNew is New but panics on error; for the built-in tier configs.
func MustNew(id int, cfg Config) *Tier {
	t, err := New(id, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Name returns the tier's encoded name (e.g. "ZS-LO-DR").
func (t *Tier) Name() string { return t.cfg.String() }

// PreparedStore is the side-effect-free half of a store: the compressed
// object (or the same-filled/rejected classification) plus the modeled
// compression cost. Build one with PrepareStore, land it with CommitStore.
// A PreparedStore references the buffer handed to PrepareStore (or the
// slab AppendTo moved its object to); the caller must keep that buffer
// alive and unmodified until the commit.
type PreparedStore struct {
	comp       []byte
	sameFilled bool
	fillByte   byte
	rejected   bool
	compressNs float64
}

// Scratch exposes the (possibly reallocated) compression buffer backing
// the prepared object, so callers recycling pooled buffers can keep the
// grown one. Nil for same-filled pages and remembered rejections, which
// compress nothing.
func (ps PreparedStore) Scratch() []byte { return ps.comp }

// AppendTo returns ps with its object copied to the end of slab, and the
// grown slab: a caller holding many prepared stores until their commits
// keeps their objects back to back in one buffer, not in one each. A store
// with no object to land — same-filled, or rejected, whose bytes
// CommitStore never reads — comes back without bytes and slab as it was.
func (ps PreparedStore) AppendTo(slab []byte) (PreparedStore, []byte) {
	if ps.sameFilled || ps.rejected {
		ps.comp = nil
		return ps, slab
	}
	n := len(slab)
	slab = append(slab, ps.comp...)
	ps.comp = slab[n:len(slab):len(slab)]
	return ps, slab
}

// RejectedStore is the PreparedStore that PrepareStore builds for a page
// this tier's codec cannot shrink, for a caller that already knows the
// page to be one (the codec's verdict on given bytes never changes): the
// same classification and the same modeled cost of the attempt, without
// the bytes. CommitStore counts and charges it like any other rejection.
func (t *Tier) RejectedStore() PreparedStore { return rejectedStore(t.cfg.Codec) }

func rejectedStore(codec string) PreparedStore {
	return PreparedStore{rejected: true, compressNs: CompressNs(codec, PageSize)}
}

// PrepareStore runs the compute half of Store — the same-filled scan and
// the compression into dst — without touching any shared tier state. cs is
// the caller's own codec state (nil compresses statelessly); with each
// caller bringing its own, PrepareStore is safe to call concurrently with
// every other tier operation. The returned PreparedStore is landed later
// (in any caller-chosen order) with CommitStore, which reproduces Store's
// counters and modeled latency exactly.
func (t *Tier) PrepareStore(cs *compress.Scratch, data, dst []byte) PreparedStore {
	if b, ok := sameFilledByte(data); ok {
		return PreparedStore{sameFilled: true, fillByte: b}
	}
	comp := cs.Compress(t.codec, dst[:0], data)
	return PreparedStore{
		comp:       comp,
		rejected:   len(comp) >= PageSize,
		compressNs: CompressNs(t.cfg.Codec, len(data)),
	}
}

// CommitStore lands a PreparedStore: pool insertion, counters, and the
// store latency. Its only error is ErrIncompressible. Store(data) is
// exactly PrepareStore followed by CommitStore.
func (t *Tier) CommitStore(ps PreparedStore) (Handle, float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commitLocked(ps)
}

func (t *Tier) commitLocked(ps PreparedStore) (Handle, float64, error) {
	if ps.sameFilled {
		t.stores.Add(1)
		t.sameFilled.Add(1)
		return Handle{sameFilled: true, fillByte: ps.fillByte, size: 0}, sameFilledScanNs, nil
	}
	if ps.rejected {
		t.rejects.Add(1)
		// Even a rejected store costs the compression attempt.
		return Handle{}, ps.compressNs, ErrIncompressible
	}
	h, storeNs, err := t.storeCompressedLocked(ps.comp)
	if err != nil {
		return Handle{}, ps.compressNs, err
	}
	return h, ps.compressNs + storeNs, nil
}

// Store compresses page data and stores it. It returns the handle and the
// modeled store latency in nanoseconds. ErrIncompressible is returned when
// the compressed page would occupy a full pool page or more.
func (t *Tier) Store(data []byte) (Handle, float64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := t.PrepareStore(&t.codecState, data, t.scratch)
	if cap(ps.comp) > cap(t.scratch) {
		t.scratch = ps.comp[:0]
	}
	return t.commitLocked(ps)
}

// StoreCompressed inserts an already-compressed object produced by a tier
// with the same codec, skipping the compression step — the §7.1
// optimization for compressed-to-compressed migration. The caller must
// guarantee comp was produced by this tier's codec.
func (t *Tier) StoreCompressed(comp []byte) (Handle, float64, error) {
	if len(comp) >= PageSize {
		t.rejects.Add(1)
		return Handle{}, 0, ErrIncompressible
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.storeCompressedLocked(comp)
}

func (t *Tier) storeCompressedLocked(comp []byte) (Handle, float64, error) {
	h, err := t.pool.Store(comp)
	if err != nil {
		t.rejects.Add(1)
		return Handle{}, 0, ErrIncompressible
	}
	t.livePoolPages.Store(int64(t.pool.Stats().PoolPages))
	t.stores.Add(1)
	lat := PoolStoreNs(t.cfg.Pool) + media.WriteCostNs(t.cfg.Media, len(comp))
	return Handle{pool: h, size: len(comp), sum: crc32.Checksum(comp, castagnoli)}, lat, nil
}

// Load decompresses the page identified by h, appending it to dst. It
// returns the page bytes and the modeled access (fault) latency in
// nanoseconds: pool lookup + media read of the compressed object +
// decompression. The latency of writing the page into its destination
// byte-addressable tier is charged by the memory manager, which never
// calls Load: it reads objects with LoadCompressed, for their checksum,
// and needs no page bytes. Load decodes with the stateless
// Codec.Decompress.
func (t *Tier) Load(h Handle, dst []byte) ([]byte, float64, error) {
	if h.sameFilled {
		start := len(dst)
		dst = append(dst, make([]byte, PageSize)...)
		for i := start; i < len(dst); i++ {
			dst[i] = h.fillByte
		}
		t.faults.Add(1)
		return dst, SameFilledFillNs, nil
	}
	comp, _, _, err := t.LoadCompressed(h, nil)
	if err != nil {
		return dst, 0, err
	}
	out, err := t.codec.Decompress(dst, comp)
	if err != nil {
		return dst, 0, fmt.Errorf("ztier %s: %w: %v", t.Name(), ErrCorruptObject, err)
	}
	t.faults.Add(1)
	return out, t.AccessNs(h.size), nil
}

// CountLoad records a page loaded out of the tier by a caller that read
// its object with LoadCompressed and charged the load itself.
func (t *Tier) CountLoad() { t.faults.Add(1) }

// LoadCompressed appends the raw compressed object to dst (no
// decompression) and returns it with the modeled read latency — the
// extraction half of the §7.1 same-codec migration fast path, and the
// intact check of every other load. An object whose CRC-32C differs from
// the one taken at store fails with ErrCorruptObject. Same-filled handles
// return (dst, ok=false) since they carry no pool object; callers fall
// back to the generic path. Safe to call concurrently; the pool read
// takes the tier's read lock.
func (t *Tier) LoadCompressed(h Handle, dst []byte) ([]byte, float64, bool, error) {
	if h.sameFilled {
		return dst, 0, false, nil
	}
	n := len(dst)
	t.mu.RLock()
	comp, err := t.pool.Load(h.pool, dst)
	t.mu.RUnlock()
	if err != nil {
		return dst, 0, false, err
	}
	if crc32.Checksum(comp[n:], castagnoli) != h.sum {
		return dst, 0, false, fmt.Errorf("ztier %s: %w", t.Name(), ErrCorruptObject)
	}
	lat := PoolLookupNs(t.cfg.Pool) + media.ReadCostNs(t.cfg.Media, h.size)
	return comp, lat, true, nil
}

// Free releases the stored page.
func (t *Tier) Free(h Handle) error {
	if h.sameFilled {
		t.sameFilled.Add(-1)
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.pool.Free(h.pool); err != nil {
		return err
	}
	t.livePoolPages.Store(int64(t.pool.Stats().PoolPages))
	return nil
}

// Compact runs one compaction pass over the tier's pool under the tier
// lock and returns what the pool did plus the modeled cost of the moves.
func (t *Tier) Compact() (zpool.CompactResult, float64) {
	t.mu.Lock()
	r := t.pool.CompactPass()
	t.livePoolPages.Store(int64(t.pool.Stats().PoolPages))
	t.mu.Unlock()
	return r, t.compactCostNs(r)
}

// compactCostNs models what the compaction pass cost: every relocated
// object pays one pool lookup and one pool store plus the media's
// per-access latencies, and the stream of compressed bytes pays the
// media's read+write bandwidth cost. This charges the work actually done —
// the historical formula guessed reclaimed × full-page read/write, which
// overcharges dense pools (whose donors hold few live objects) and
// ignores how compressed the moved objects were.
func (t *Tier) compactCostNs(r zpool.CompactResult) float64 {
	if r.ObjectsMoved == 0 {
		return 0
	}
	p := media.Props(t.cfg.Media)
	perObject := PoolLookupNs(t.cfg.Pool) + PoolStoreNs(t.cfg.Pool) + 2*p.LoadNs
	stream := (p.ReadNsPerKB + p.WriteNsPerKB) * float64(r.BytesMoved) / 1024
	return float64(r.ObjectsMoved)*perObject + stream
}

// Churn returns the pool's lifetime store+free count — the monotonic
// counter the manager's compaction uses to skip tiers that have not
// changed since their last pass.
func (t *Tier) Churn() int64 {
	t.mu.RLock()
	ps := t.pool.Stats()
	t.mu.RUnlock()
	return ps.Stores + ps.Frees
}

// Stats returns the tier's counters. Pages includes live same-filled
// pages, which contribute no pool footprint.
func (t *Tier) Stats() Stats {
	t.mu.RLock()
	ps := t.pool.Stats()
	t.mu.RUnlock()
	return Stats{
		Pages:           ps.Objects + int(t.sameFilled.Load()),
		CompressedBytes: ps.StoredBytes,
		PoolPages:       ps.PoolPages,
		Faults:          t.faults.Load(),
		Stores:          t.stores.Load(),
		Rejects:         t.rejects.Load(),
		SameFilled:      t.sameFilled.Load(),
	}
}

// CostPerGB returns the tier's backing medium unit cost.
func (t *Tier) CostPerGB() float64 { return media.Props(t.cfg.Media).CostPerGB }

// AccessNs returns the modeled latency of faulting a page of the given
// compressed size out of this tier (without the destination write),
// matching what Load would charge.
func (t *Tier) AccessNs(compressedSize int) float64 {
	return PoolLookupNs(t.cfg.Pool) +
		media.ReadCostNs(t.cfg.Media, compressedSize) +
		DecompressNs(t.cfg.Codec, PageSize)
}

// TypicalAccessNs returns the tier's modeled fault latency assuming a
// typical 50% compressed page — the per-tier Lat_CT constant the
// analytical model uses (Eq. 7) before it has observed real objects.
func (t *Tier) TypicalAccessNs() float64 {
	return t.AccessNs(PageSize / 2)
}
