// Package mem implements the tiered memory manager at the heart of the
// TierScape reproduction: a simulated address space of 4 KB pages grouped
// into 2 MB regions, placed across byte-addressable tiers (DRAM, NVMM,
// CXL) and compressed tiers (internal/ztier).
//
// The manager is the kernel-side analogue of the paper's Linux changes
// (§7.1): it tracks each page's tier (the struct-page tier_id field),
// performs demotion/promotion migrations at region granularity, handles
// faults on compressed pages (load + place in DRAM), supports compressed-
// to-compressed migration via the naive decompress-recompress path, and
// keeps per-tier statistics. Every tier is unbounded: the paper's placement
// is bounded by TCO alone (Eq. 2), so no move or fault is ever turned away
// for want of room. A compressed object is read and its checksum
// verified wherever the modeled kernel would decompress it; its bytes are
// never decoded, since the modeled latencies come from ztier's tables and
// a page's bytes can always be regenerated.
//
// Page contents are deterministic functions of (page index, page version):
// pages resident in byte-addressable tiers need no storage at all and are
// regenerated on demand when compressed; writes bump the version. This
// keeps multi-GB-scale simulated footprints cheap while compression ratios
// remain grounded in real compressed bytes.
//
// A Manager alternates between two phases, and who may touch it differs.
// In the access phase one goroutine, the driver's, issues Access calls and
// nothing else runs: the hit path takes no lock. In the migration phase any
// number of goroutines may call the prepare and commit halves (and their
// MigrateRegion wrapper), the compaction pass and the
// readers concurrently: page-table state is guarded by a striped
// per-span lock, tier pools are guarded inside ztier, and every counter
// (including per-tier residency) is an atomic, so concurrent migrations
// from the simulator's push threads stay exact. The caller orders the
// phases (starting and joining its goroutines does); an Access beside a
// migration is a data race, not a supported mode.
//
// A region, or one span of it, moves one way: a prepare (pure compute:
// object reads + compression, safe to run concurrently) then a commit (all
// state changes and placement decisions); MigrateRegion is the two back to
// back. Committing prepared spans one at a time in a fixed order gives the
// same outcome bit-for-bit regardless of how many goroutines ran the
// prepare half — the contract sim.Run's push-thread pool, which commits in
// plan order, is built on. The manager itself knows nothing about that
// order.
//
// A page's trip allocates only what it keeps. Each push thread brings its
// own MigrationScratch to every move and fault: a page is regenerated
// into the scratch's one page buffer, a pool object is read into its one
// object buffer, and a prepared region keeps nothing but the compressed
// objects its commit will land, back to back in one slab. Once a scratch
// is warm, a fault, a prepare from any source and a commit allocate
// nothing outside the pools' own growth.
package mem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tierscape/internal/compress"
	"tierscape/internal/corpus"
	"tierscape/internal/media"
	"tierscape/internal/ztier"
)

// PageSize is the page size in bytes.
const PageSize = 4096

// RegionPages is the number of pages per region (2 MB regions, §7.2).
const RegionPages = 512

// RegionSize is the region size in bytes.
const RegionSize = PageSize * RegionPages

// SpanPages is the number of pages per span, the unit the page table is
// locked in and sim's push threads move a region in.
const SpanPages = 64

// MaxPages bounds a page count that arrives from outside the program (an
// attach body, a flag, a trace header): 2^25 pages are 128 GiB, above the
// paper's largest working set (119 GB), and a manager that size holds
// 0.8 GB of page table. A count above it is refused before any
// workload or manager is built; the Go runtime cannot recover from the
// allocation failure a count like 2^40 would cause.
const MaxPages = 1 << 25

// PageID is a virtual page number.
type PageID int64

// RegionID identifies a 2 MB region.
type RegionID int64

// Region returns the region containing page p.
func (p PageID) Region() RegionID { return RegionID(p / RegionPages) }

// TierID identifies a tier within a Manager. Tier 0 is always DRAM.
type TierID int

// maxTiers bounds a manager's lineup: the page table's tier map holds a
// page's TierID in one byte.
const maxTiers = 256

// DRAMTier is the TierID of the DRAM tier.
const DRAMTier TierID = 0

// Errors returned by the manager.
var (
	ErrNoSuchTier = errors.New("mem: no such tier")
	ErrBadPage    = errors.New("mem: page id out of range")
)

// ErrTierFull is never returned: every tier is unbounded.
//
// Deprecated: nothing returns it; it stays until the benchmark, which
// still tests for it, stops naming it.
var ErrTierFull = errors.New("mem: destination tier is full")

// TierInfo describes one tier of a Manager for policy/model consumption.
type TierInfo struct {
	ID TierID
	// Name is "DRAM", "NVMM", "CXL" for byte-addressable tiers or the
	// ztier encoding (e.g. "ZS-LO-DR") for compressed tiers.
	Name string
	// Compressed reports whether this is a compressed tier.
	Compressed bool
	// Media is the backing medium.
	Media media.Kind
	// Codec is the compression algorithm name for compressed tiers
	// ("" for byte-addressable tiers).
	Codec string
	// AccessNs is the modeled latency of one access: the medium load
	// latency for byte-addressable tiers, or the typical fault latency
	// for compressed tiers.
	AccessNs float64
	// CostPerGB is the backing medium's unit cost.
	CostPerGB float64
}

// baTier is a byte-addressable tier's state.
type baTier struct {
	info  TierInfo
	pages atomic.Int64 // resident pages
}

// ctTier wraps a compressed tier.
type ctTier struct {
	info  TierInfo
	tier  *ztier.Tier
	pages atomic.Int64
	// rejectBit is the tier's codec's bit in pte.rejected; tiers sharing a
	// codec share it. Zero for a codec past the eighth, which then goes
	// unremembered.
	rejectBit uint8
}

// pte is a page-table entry: everything about a page but its tier, which
// the manager's tier map (Manager.loc) holds. A pte is 24 bytes.
type pte struct {
	version uint32
	// rejected remembers, one bit per codec (ctTier.rejectBit), that this
	// version of the page was rejected as incompressible: whether a codec
	// shrinks given bytes never changes, so the next demotion towards that
	// codec need not regenerate and compress the page to be rejected
	// again. Set by commitPage under the span write lock, read by
	// prepareGeneric under the read lock, cleared with every version bump
	// by the access phase's single owner. It sits in the padding version
	// leaves before handle.
	rejected uint8
	handle   ztier.Handle // valid when the page's tier is compressed
}

// Config configures a Manager.
type Config struct {
	// NumPages is the address-space size in pages.
	NumPages int64
	// Content generates page contents; required.
	Content corpus.Source
	// ByteTiers lists additional byte-addressable tiers in latency order
	// (e.g. NVMM). DRAM is implicit and always tier 0.
	ByteTiers []media.Kind
	// CompressedTiers lists the compressed tier configs, in the caller's
	// preferred latency order. Their TierIDs follow the byte tiers.
	CompressedTiers []ztier.Config
	// CostOverrides remaps a backing medium's CostPerGB, for constrained
	// or custom catalogs whose unit costs differ from the media defaults.
	// It applies to byte-addressable tiers and compressed tiers alike (a
	// compressed tier's cost is that of the medium its pool lives on).
	CostOverrides map[media.Kind]float64
}

// regionLockStripes bounds the regions the striped span locks cover;
// small managers get one lock per span, large ones share stripes.
const regionLockStripes = 256

// Manager is the tiered memory manager.
type Manager struct {
	numPages int64
	gen      corpus.Source
	ptes     []pte
	// loc is the page table's tier map: page p's TierID in one byte, kept
	// apart from its pte so that an access, which needs only the tier,
	// reads a byte of a dense array instead of a 24-byte entry. The zero
	// byte is DRAMTier, so every page starts in DRAM. Its bytes follow the
	// ptes' rules: written under the span write lock in the migration
	// phase, read and written with no lock by the access phase's single
	// owner. A span's 64 bytes are one cache line (the allocator aligns a
	// map of a region or more to 64 bytes), so two push threads committing
	// different spans never write the same line.
	loc []uint8

	// memo, when the manager's owner shares one (ShareStores), answers
	// prepares whose compressed form some manager over the same generator
	// already built; memoGen is that generator, the key's first term. Nil
	// for a manager on its own, and for any source that is not a
	// *corpus.Generator.
	memo    *ztier.StoreMemo
	memoGen corpus.Generator

	ba  []*baTier // index 0 = DRAM
	cts []*ctTier

	tiers []TierInfo // all tiers by TierID

	// spanMu stripes the page table by span for the migration phase, the
	// only time several goroutines touch it: push threads preparing and
	// committing moves, and the readers that may run beside them, each
	// hold the owning span's lock around their pte reads and writes. Only
	// the whole-region readers hold more than one: all of their region's,
	// in span order, which is stripe order (spanLock), so the striping
	// cannot deadlock. Lock order is span lock → tier lock (inside ztier).
	// The access phase takes none of this: see Access.
	spanMu []sync.RWMutex

	// counters
	faults     atomic.Int64 // compressed-tier faults
	migrations atomic.Int64
	rejects    atomic.Int64
	migratedIn []atomic.Int64 // by TierID

	// compactSeen is each ct's tier churn at its last compaction pass,
	// -1 before the first; compactMu guards it (Compact may be called
	// concurrently with itself in stress tests; tier access inside is
	// already tier-locked).
	compactMu   sync.Mutex
	compactSeen []int64
}

// MigrationScratch is the reusable working state of one migration worker:
// one page buffer, one pool-object buffer, one codec-output buffer, the
// encoder state its compressions reuse, and its recycled PreparedRegions
// with their slabs. The owner — a sim.Stepper keeps one per push thread
// for its whole life — hands the same scratch to every call it makes, so
// once the scratch is warm a fault, a prepare from any source and a commit
// allocate nothing; the scratch is garbage when its owner is.
//
// Every buffer is dead as soon as the step that filled it is done: a pool
// object once its checksum is verified, a page once the destination's
// store is built from it, codec output once the store is kept in its
// region's slab. So the scratch holds three page-sized buffers, the
// encoder state, and a slab per region its owner has prepared and not yet
// seen consumed.
//
// A nil *MigrationScratch is valid: a fault then reads the pool object
// into a fresh buffer and a prepare makes a scratch for its region, which
// suits a caller moving a page now and then. Not safe for concurrent use —
// each worker owns its own — except for Release's hand-back.
type MigrationScratch struct {
	page  []byte // a page regenerated, until its store is built
	obj   []byte // a pool object, until its checksum is verified
	out   []byte // codec output, until it is kept in a region's slab
	codec compress.Scratch
	mu    sync.Mutex        // guards free: any goroutine may release a region
	free  []*PreparedRegion // consumed regions, for the next prepares
}

// warm makes the scratch's buffers on first use, each with room for a
// page: the page and object buffers never need more, and codec output
// that does (an incompressible page's expansion) is kept grown.
func (s *MigrationScratch) warm() {
	if s.page == nil {
		s.page = make([]byte, 0, PageSize)
		s.obj = make([]byte, 0, PageSize)
		s.out = make([]byte, 0, PageSize)
	}
}

// check reads the object h names in tier t into the scratch's object
// buffer, where the tier verifies its checksum, and returns the modeled
// latency of loading the page out of t: the pool read plus the
// decompression, or the fill of a same-filled page. Nothing decodes the
// object — no caller reads a loaded page's bytes. A nil scratch reads
// into a fresh buffer.
func (s *MigrationScratch) check(t *ztier.Tier, h ztier.Handle) (float64, error) {
	if h.SameFilled() {
		return ztier.SameFilledFillNs, nil
	}
	var obj []byte
	if s != nil {
		s.warm()
		obj = s.obj[:0]
	}
	if _, _, _, err := t.LoadCompressed(h, obj); err != nil {
		return 0, err
	}
	return t.AccessNs(h.CompressedSize()), nil
}

// keep lands ps's object, if it has one, at the end of slab, where it
// waits for the commit, and returns the store that reads it there. The
// codec-output buffer is free again, kept grown if the codec grew it.
func (s *MigrationScratch) keep(ps ztier.PreparedStore, slab *[]byte) ztier.PreparedStore {
	if b := ps.Scratch(); cap(b) > cap(s.out) {
		s.out = b[:0]
	}
	ps, *slab = ps.AppendTo(slabRoom(*slab))
	return ps
}

// minSlab is the capacity a region's slab starts at.
const minSlab = 16 * PageSize

// slabRoom returns slab with room for one more object, which is always
// shorter than a page, doubling it when it has less: a scratch's slab
// reaches the largest region it keeps in a few steps, where append's
// gentler growth for large slices would take dozens and leave each step's
// copy behind.
func slabRoom(slab []byte) []byte {
	if cap(slab)-len(slab) >= PageSize {
		return slab
	}
	grown := make([]byte, len(slab), max(2*cap(slab), minSlab))
	copy(grown, slab)
	return grown
}

// NewManager builds a manager with all pages initially resident in DRAM.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.NumPages <= 0 {
		return nil, fmt.Errorf("mem: NumPages must be positive, got %d", cfg.NumPages)
	}
	if cfg.Content == nil {
		return nil, errors.New("mem: Config.Content is required")
	}
	if n := 1 + len(cfg.ByteTiers) + len(cfg.CompressedTiers); n > maxTiers {
		return nil, fmt.Errorf("mem: %d tiers, at most %d fit the page table's tier map", n, maxTiers)
	}
	m := &Manager{
		numPages: cfg.NumPages,
		gen:      cfg.Content,
		ptes:     make([]pte, cfg.NumPages),
		loc:      make([]uint8, cfg.NumPages),
	}
	cost := func(k media.Kind, def float64) float64 {
		if v, ok := cfg.CostOverrides[k]; ok {
			return v
		}
		return def
	}
	for _, k := range append([]media.Kind{media.DRAM}, cfg.ByteTiers...) {
		p := media.Props(k)
		info := TierInfo{
			ID: TierID(len(m.tiers)), Name: k.Name(), Media: k,
			AccessNs:  p.LoadNs,
			CostPerGB: cost(k, p.CostPerGB),
		}
		m.ba = append(m.ba, &baTier{info: info})
		m.tiers = append(m.tiers, info)
	}
	for _, tc := range cfg.CompressedTiers {
		id := TierID(len(m.tiers))
		zt, err := ztier.New(int(id), tc)
		if err != nil {
			return nil, err
		}
		info := TierInfo{
			ID: id, Name: tc.String(), Compressed: true, Media: tc.Media,
			Codec:     tc.Codec,
			AccessNs:  zt.TypicalAccessNs(),
			CostPerGB: cost(tc.Media, zt.CostPerGB()),
		}
		m.cts = append(m.cts, &ctTier{info: info, tier: zt, rejectBit: m.codecRejectBit(tc.Codec)})
		m.tiers = append(m.tiers, info)
	}
	m.migratedIn = make([]atomic.Int64, len(m.tiers))
	m.compactSeen = make([]int64, len(m.cts))
	for i := range m.compactSeen {
		m.compactSeen[i] = -1 // every tier needs its first pass
	}
	m.spanMu = make([]sync.RWMutex, min(m.NumRegions(), regionLockStripes)*RegionPages/SpanPages)
	// All pages start in DRAM.
	m.ba[0].pages.Store(cfg.NumPages)
	return m, nil
}

// codecRejectBit returns the pte.rejected bit of a codec about to get a
// tier: the bit of an earlier tier with the same codec, else the next free
// one, else none.
func (m *Manager) codecRejectBit(codec string) uint8 {
	var used uint8
	for _, ct := range m.cts {
		if ct.info.Codec == codec {
			return ct.rejectBit
		}
		used |= ct.rejectBit
	}
	return (used + 1) &^ used // bits are handed out lowest first; 0 once all eight are taken
}

// ShareStores lets the manager draw on, and add to, sm: a memo of prepared
// stores its owner shares among managers whose pages come from the same
// generators (a figure's jobs). Nothing a caller of the manager can observe
// changes — a remembered store is the one the manager would have built —
// only how often a page is regenerated and compressed. A manager whose
// content source is not a *corpus.Generator has no key to offer and ignores
// the call. Call it before the first migration, not beside one.
func (m *Manager) ShareStores(sm *ztier.StoreMemo) {
	if g, ok := m.gen.(*corpus.Generator); ok {
		m.memo, m.memoGen = sm, *g
	}
}

// spanLock returns the lock stripe owning page p's span. Spans share
// stripes modulo their count, a multiple of a region's spans, so a
// region's spans own consecutive stripes in span order.
func (m *Manager) spanLock(p PageID) *sync.RWMutex {
	return &m.spanMu[int64(p)%(int64(len(m.spanMu))*SpanPages)/SpanPages]
}

// eachSpanLock applies op to the lock of every span of the region whose
// pages are [start, end), in span order.
func (m *Manager) eachSpanLock(start, end PageID, op func(*sync.RWMutex)) {
	for p := start; p < end; p += SpanPages {
		op(m.spanLock(p))
	}
}

// inSpan runs f between lock and unlock of page p's span lock.
func (m *Manager) inSpan(p PageID, lock, unlock func(*sync.RWMutex), f func() error) error {
	mu := m.spanLock(p)
	lock(mu)
	defer unlock(mu)
	return f()
}

// NumPages returns the address-space size in pages.
func (m *Manager) NumPages() int64 { return m.numPages }

// NumRegions returns the number of 2 MB regions (rounded up).
func (m *Manager) NumRegions() int64 {
	return (m.numPages + RegionPages - 1) / RegionPages
}

// RegionSpan returns the pages [start, end) of region r: RegionPages of
// them, fewer in a partial final region, and none (start == end) for a
// region outside the address space.
func (m *Manager) RegionSpan(r RegionID) (start, end PageID) {
	if r < 0 || int64(r) >= m.NumRegions() {
		return 0, 0
	}
	start = PageID(r) * RegionPages
	return start, min(start+RegionPages, PageID(m.numPages))
}

// Tiers returns descriptors for every tier, indexed by TierID.
func (m *Manager) Tiers() []TierInfo {
	out := make([]TierInfo, len(m.tiers))
	copy(out, m.tiers)
	return out
}

// ct returns the compressed tier id refers to, and whether it is one.
func (m *Manager) ct(id TierID) (*ctTier, bool) {
	i := int(id) - len(m.ba)
	if i < 0 || i >= len(m.cts) {
		return nil, false
	}
	return m.cts[i], true
}

// content regenerates page p's current bytes into buf, which must have
// capacity for at least PageSize bytes, and returns the filled slice. The
// caller owns the buffer, so two results never alias each other. Callers
// hold the page's span lock, as for any pte read in the migration phase.
func (m *Manager) content(p PageID, buf []byte) []byte {
	buf = buf[:PageSize]
	m.gen.Fill(m.contentIndex(p), buf)
	return buf
}

// contentIndex is the generator index of page p's current bytes: the
// version is mixed in so writes change content while keeping the page's
// compressibility profile.
func (m *Manager) contentIndex(p PageID) uint64 {
	return uint64(p) + uint64(m.ptes[p].version)*uint64(m.numPages)
}

// AccessResult reports what one access did.
type AccessResult struct {
	// LatencyNs is the modeled total latency of the access.
	LatencyNs float64
	// Tier is the tier that served the access (before any promotion).
	Tier TierID
	// Fault reports whether the access faulted on a compressed tier; the
	// page is then in DRAM.
	Fault bool
}

// Access simulates one load or store to page p and returns its latency and
// effects. Accessing a page in a compressed tier faults: the page is
// loaded, removed from the compressed tier, and placed in DRAM. Writes
// bump the page version.
//
// Access takes no lock. The manager is single-owner while accesses are
// being issued: one goroutine — the driver's — calls Access, and nothing
// that migrates, compacts or reads the page table runs beside it. The
// phases alternate, and whatever ends one orders it before the next (the
// apply engine's go statements and WaitGroup, the daemon's command
// goroutine); DESIGN.md §12 has the contract.
func (m *Manager) Access(p PageID, write bool) (AccessResult, error) {
	return m.AccessScratch(p, write, nil)
}

// AccessScratch is Access with the fault path's object buffer drawn from
// the caller's scratch (nil = a fresh buffer) — for a driver that issues
// accesses in volume. A read hit on a byte-addressable tier is a bounds
// check, a tier-map byte and the tier's latency constant; a write also
// bumps the page's pte.
func (m *Manager) AccessScratch(p PageID, write bool, sc *MigrationScratch) (AccessResult, error) {
	if p < 0 || p >= PageID(len(m.loc)) {
		return AccessResult{}, ErrBadPage
	}
	if write {
		e := &m.ptes[p]
		e.version++
		e.rejected = 0 // new bytes: no codec has seen them
	}
	t := TierID(m.loc[p])
	if int(t) < len(m.ba) {
		return AccessResult{LatencyNs: m.ba[t].info.AccessNs, Tier: t}, nil
	}
	return m.fault(p, t, sc)
}

// fault serves an access to page p, held by compressed tier t: verify the
// compressed copy, free it, and promote the page to DRAM.
func (m *Manager) fault(p PageID, t TierID, sc *MigrationScratch) (AccessResult, error) {
	e := &m.ptes[p]
	ct := m.cts[int(t)-len(m.ba)]
	loadNs, err := sc.check(ct.tier, e.handle)
	if err != nil {
		return AccessResult{}, fmt.Errorf("mem: fault on page %d: %w", p, err)
	}
	ct.tier.CountLoad()
	if err := ct.tier.Free(e.handle); err != nil {
		return AccessResult{}, fmt.Errorf("mem: freeing faulted page %d: %w", p, err)
	}
	ct.pages.Add(-1)
	dram := m.ba[DRAMTier]
	dram.pages.Add(1)
	m.loc[p] = uint8(DRAMTier)
	e.handle = ztier.Handle{}
	m.faults.Add(1)
	return AccessResult{
		LatencyNs: loadNs + media.WriteCostNs(dram.info.Media, PageSize),
		Tier:      t,
		Fault:     true,
	}, nil
}

// MigrationResult reports the outcome of a migration request.
type MigrationResult struct {
	// Moved is the number of pages that reached the destination.
	Moved int
	// Rejected is the number of pages that did not reach the destination
	// but were placed somewhere definite anyway: incompressible pages,
	// which remain in a byte-addressable source tier, or go to DRAM from a
	// compressed one.
	Rejected int
	// Skipped counts pages already in the destination tier.
	Skipped int
	// LatencyNs is the total modeled migration work (charged to the
	// daemon/migration threads, not to application accesses).
	LatencyNs float64
}

// preparedPage is the side-effect-free half of one page migration: every
// object read and compression the move will need, plus the modeled
// latencies, with no shared state touched and no counter moved. It is
// produced under the span's read lock and landed by commitPage under the
// write lock. It holds only what the commit reads — the fast path's object
// or the destination's store, their bytes in the region's slab — never
// the page itself: the commit places a page without its bytes, whether it
// lands or is rejected.
type preparedPage struct {
	page PageID
	dest TierID
	src  TierID // the page's tier at prepare time

	skip bool

	// Same-codec fast-path move (§7.1): the raw compressed object read
	// from the source plus its modeled read latency.
	fastComp []byte
	fastNs   float64

	// Generic-path materials, prepared when there is no fast-path move.
	srcLoadNs float64
	destPrep  ztier.PreparedStore
}

// preparePage builds the prepared half of moving page p to dest on sc,
// keeping the bytes its commit will read at the end of slab. The caller
// must hold p's span lock (read side suffices).
func (m *Manager) preparePage(p PageID, dest TierID, sc *MigrationScratch, slab *[]byte) (preparedPage, error) {
	src := TierID(m.loc[p])
	pp := preparedPage{page: p, dest: dest, src: src}
	if src == dest {
		pp.skip = true
		return pp, nil
	}
	// Same-codec fast path (§7.1): between two compressed tiers using the
	// same compression algorithm, the compressed object moves directly —
	// no decompression, no recompression. The pool reads it straight into
	// the slab.
	if srcCT, ok := m.ct(src); ok {
		if dstCT, ok2 := m.ct(dest); ok2 && srcCT.info.Codec == dstCT.info.Codec {
			*slab = slabRoom(*slab)
			n := len(*slab)
			s, readNs, direct, err := srcCT.tier.LoadCompressed(m.ptes[p].handle, *slab)
			if err != nil {
				return pp, fmt.Errorf("mem: migrating page %d: %w", p, err)
			}
			if direct {
				*slab = s
				pp.fastComp = s[n:len(s):len(s)]
				pp.fastNs = readNs
				return pp, nil
			}
		}
	}
	return pp, m.prepareGeneric(&pp, sc, slab)
}

// prepareGeneric fills pp's generic-path materials: the source extraction
// latency plus, when the destination is compressed, its prepared store,
// kept at the end of slab. The page, when the store has to be built from
// it, is regenerated into sc's page buffer, whatever its source — a
// compressed source holds the bytes of the same version — and is dead
// once the store is built. Caller holds the span lock.
func (m *Manager) prepareGeneric(pp *preparedPage, sc *MigrationScratch, slab *[]byte) error {
	e := &m.ptes[pp.page]
	dstCT, dstIsCT := m.ct(pp.dest)
	if srcCT, ok := m.ct(pp.src); ok {
		// Read even when the destination needs no bytes or the memo will
		// supply its store: this read is the move's check that the object
		// is intact.
		loadNs, err := sc.check(srcCT.tier, e.handle)
		if err != nil {
			return fmt.Errorf("mem: migrating page %d: %w", pp.page, err)
		}
		pp.srcLoadNs = loadNs
	} else if dstIsCT && e.rejected&dstCT.rejectBit != 0 {
		// A remembered rejection: the store PrepareStore would build from
		// the regenerated page, without either.
		pp.destPrep = dstCT.tier.RejectedStore()
		return nil
	}
	if !dstIsCT {
		return nil
	}
	sc.warm()
	key := ztier.StoreKey{Gen: m.memoGen, Index: m.contentIndex(pp.page), Codec: dstCT.info.Codec}
	// The copy lands in the codec-output buffer, as the compression would
	// have: what keep hands on is the job's bytes, never the memo's.
	ps, hit := m.memo.Lookup(key, sc.out) // a nil memo always misses
	if !hit || m.memo.Verify != nil {
		page := m.content(pp.page, sc.page)
		if !hit {
			ps = dstCT.tier.PrepareStore(&sc.codec, page, sc.out)
			m.memo.Insert(key, ps)
		} else {
			// The checking mode (tests only): build, on no shared state,
			// the store the hit would have skipped, and report the pair.
			m.memo.Verify(key, ps, dstCT.tier.PrepareStore(nil, page, nil))
		}
	}
	pp.destPrep = sc.keep(ps, slab)
	return nil
}

// commitPage lands a prepared page move: every placement decision,
// residency change and counter bump. The caller must hold the page's
// span write lock. If the page moved between prepare and commit
// (another migrator landed a move of the same page first), the move is
// re-prepared in place on sc, its bytes kept at the end of slab.
func (m *Manager) commitPage(pp preparedPage, sc *MigrationScratch, slab *[]byte) (MigrationResult, error) {
	var res MigrationResult
	e := &m.ptes[pp.page]
	if TierID(m.loc[pp.page]) != pp.src {
		np, err := m.preparePage(pp.page, pp.dest, sc, slab)
		if err != nil {
			return res, err
		}
		pp = np
	}
	if pp.skip {
		res.Skipped = 1
		return res, nil
	}
	dstCT, dstIsCT := m.ct(pp.dest)

	// Same-codec direct move. The object came out of a pool of the same
	// codec, so it is shorter than a page and not empty, and no pool
	// refuses it: a refusal is an error, not a rejection.
	if pp.fastComp != nil {
		srcCT, _ := m.ct(pp.src)
		h, storeNs, err := dstCT.tier.StoreCompressed(pp.fastComp)
		if err != nil {
			return res, fmt.Errorf("mem: migrating page %d: same-codec store refused: %w", pp.page, err)
		}
		if err := srcCT.tier.Free(e.handle); err != nil {
			return res, fmt.Errorf("mem: migrating page %d: %w", pp.page, err)
		}
		srcCT.pages.Add(-1)
		dstCT.pages.Add(1)
		m.loc[pp.page] = uint8(pp.dest)
		e.handle = h
		res.Moved = 1
		res.LatencyNs = pp.fastNs + storeNs
		m.migrations.Add(1)
		m.migratedIn[pp.dest].Add(1)
		return res, nil
	}

	// 1. Extract the page from its source tier (content + read latency).
	if srcCT, ok := m.ct(pp.src); ok {
		srcCT.tier.CountLoad()
		if err := srcCT.tier.Free(e.handle); err != nil {
			return res, fmt.Errorf("mem: migrating page %d: %w", pp.page, err)
		}
		srcCT.pages.Add(-1)
		res.LatencyNs += pp.srcLoadNs
		e.handle = ztier.Handle{}
	} else {
		src := m.ba[pp.src]
		res.LatencyNs += media.ReadCostNs(src.info.Media, PageSize)
		src.pages.Add(-1)
	}

	// 2. Insert into the destination tier.
	if dstIsCT {
		h, storeNs, err := dstCT.tier.CommitStore(pp.destPrep)
		res.LatencyNs += storeNs
		if err != nil {
			// Rejected as incompressible: fall back to the source tier if
			// byte-addressable, else to DRAM, as a fault would. The verdict
			// holds for these bytes under this codec until the next write.
			if _, wasCT := m.ct(pp.src); wasCT {
				m.loc[pp.page] = uint8(DRAMTier)
			}
			m.ba[m.loc[pp.page]].pages.Add(1)
			m.rejects.Add(1)
			e.rejected |= dstCT.rejectBit
			res.Rejected = 1
			return res, nil
		}
		dstCT.pages.Add(1)
		e.handle = h
	} else {
		db := m.ba[pp.dest]
		db.pages.Add(1)
		res.LatencyNs += media.WriteCostNs(db.info.Media, PageSize)
	}
	m.loc[pp.page] = uint8(pp.dest)
	res.Moved = 1
	m.migrations.Add(1)
	m.migratedIn[pp.dest].Add(1)
	return res, nil
}

// MigrateRegion moves every page of region r to tier dest, accumulating
// the per-page results. TS-Daemon migrates at this 2 MB granularity (§7.2).
// It is PrepareRegionMigration followed by CommitRegionMigration.
func (m *Manager) MigrateRegion(r RegionID, dest TierID) (MigrationResult, error) {
	pr, err := m.PrepareRegionMigration(r, dest)
	if err != nil {
		return MigrationResult{}, err
	}
	return m.CommitRegionMigration(pr)
}

// PreparedRegion is the precomputed half of one region migration, or of
// one span of it, built by a prepare and landed by a commit. Its pages
// hold no buffers of their own: every object a commit will read — a
// fast-path object, a built store, a memo hit's copy — sits in the
// region's one slab, back to back, and a rejected or same-filled store
// keeps no bytes at all. A consumed region goes back to its scratch with
// the slab and page slice emptied, not freed, for a later prepare.
type PreparedRegion struct {
	m      *Manager
	sc     *MigrationScratch // where a consumed region is recycled to
	region RegionID
	dest   TierID
	pages  []preparedPage
	slab   []byte
	// spare is a consumed region's page slice, emptied, kept for reuse.
	spare []preparedPage
}

// Release consumes the prepared region without committing it; call it
// when a prepared region is abandoned (nil: a no-op). Committing consumes
// it automatically. The region, its page slice and its slab go back to the
// scratch that prepared it. The pages are zeroed first: their objects may
// sit in arrays the slab outgrew while the region was prepared, and those
// die now, not when a later prepare overwrites the entries.
func (pr *PreparedRegion) Release() {
	if pr == nil || pr.pages == nil {
		return // none, or already consumed
	}
	clear(pr.pages)
	pr.spare, pr.pages, pr.slab = pr.pages[:0], nil, pr.slab[:0]
	pr.sc.mu.Lock()
	pr.sc.free = append(pr.sc.free, pr)
	pr.sc.mu.Unlock()
}

// takeRegion returns a recycled PreparedRegion of the scratch's, or a new one.
func (s *MigrationScratch) takeRegion() *PreparedRegion {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.free); n > 0 {
		pr := s.free[n-1]
		s.free = s.free[:n-1]
		return pr
	}
	return new(PreparedRegion)
}

// PrepareRegionMigration runs the compute half of moving region r to dest
// — every object read and compression the sweep will need — under the
// span read locks, touching no shared state. Any number of goroutines may
// prepare concurrently; committing the prepared regions in a fixed order
// (CommitRegionMigration) then reproduces the same outcome bit-for-bit
// however many goroutines prepared.
func (m *Manager) PrepareRegionMigration(r RegionID, dest TierID) (*PreparedRegion, error) {
	start, end := m.RegionSpan(r)
	return m.preparePages(r, start, end, dest, nil)
}

// PrepareSpanMigration is PrepareRegionMigration for span span of region r
// alone (fewer pages in a partial final region's last span), on the
// caller's scratch (nil makes one). A push thread hands the same scratch
// to every prepare: the buffers, the encoder state and the recycled
// regions with their slabs are reused, so a warm scratch's prepare
// allocates nothing. A prepared region drawn from a scratch must therefore
// not be touched after the call that consumed it (the commit that finished
// or failed it, or Release): a later prepare hands the same value out.
func (m *Manager) PrepareSpanMigration(r RegionID, span int, dest TierID, sc *MigrationScratch) (*PreparedRegion, error) {
	start, end := m.RegionSpan(r)
	first := start + PageID(span)*SpanPages
	if span < 0 || first >= end {
		return nil, ErrBadPage
	}
	return m.preparePages(r, first, min(first+SpanPages, end), dest, sc)
}

// preparePages prepares moving region r's pages [start, end) to dest.
func (m *Manager) preparePages(r RegionID, start, end PageID, dest TierID, sc *MigrationScratch) (*PreparedRegion, error) {
	if start == end {
		return nil, ErrBadPage
	}
	if int(dest) < 0 || int(dest) >= len(m.tiers) {
		return nil, ErrNoSuchTier
	}
	if sc == nil {
		sc = new(MigrationScratch)
	}
	pr := sc.takeRegion()
	pages := pr.spare[:0]
	if cap(pages) < int(end-start) {
		pages = make([]preparedPage, 0, end-start)
	}
	*pr = PreparedRegion{m: m, sc: sc, region: r, dest: dest, pages: pages, slab: pr.slab[:0]}
	for p := start; p < end; {
		if err := m.inSpan(p, (*sync.RWMutex).RLock, (*sync.RWMutex).RUnlock, func() error {
			for next := min((p/SpanPages+1)*SpanPages, end); p < next; p++ {
				pp, err := m.preparePage(p, dest, sc, &pr.slab)
				if err != nil {
					return err
				}
				pr.pages = append(pr.pages, pp)
			}
			return nil
		}); err != nil {
			pr.Release()
			return nil, err
		}
	}
	return pr, nil
}

// CommitRegionMigration is CommitMigrationInto from a zero result, on pr's
// own scratch.
func (m *Manager) CommitRegionMigration(pr *PreparedRegion) (MigrationResult, error) {
	var total MigrationResult
	err := m.CommitMigrationInto(pr, nil, &total)
	return total, err
}

// CommitMigrationInto lands a prepared region or span page by page, under
// the span write locks, adding each page's outcome to *total in page
// order: a move landed span by span into one running result sums its
// latency exactly as one whole-region commit. A page that moved since its
// prepare is re-prepared on sc (nil: pr's own scratch, which a worker
// committing another's prepare must not use). The prepared region is
// consumed even on error; committing it again adds nothing.
func (m *Manager) CommitMigrationInto(pr *PreparedRegion, sc *MigrationScratch, total *MigrationResult) error {
	if pr == nil {
		return errors.New("mem: nil prepared region")
	}
	if pr.m != m {
		pr.Release()
		return errors.New("mem: prepared region belongs to a different manager")
	}
	if pr.pages == nil {
		return nil // already consumed (committed, released, or failed hard)
	}
	defer pr.Release()
	if sc == nil {
		sc = pr.sc
	}
	for i := 0; i < len(pr.pages); {
		if err := m.inSpan(pr.pages[i].page, (*sync.RWMutex).Lock, (*sync.RWMutex).Unlock, func() error {
			for end := (pr.pages[i].page/SpanPages + 1) * SpanPages; i < len(pr.pages) && pr.pages[i].page < end; i++ {
				res, err := m.commitPage(pr.pages[i], sc, &pr.slab)
				total.Moved += res.Moved
				total.Rejected += res.Rejected
				total.Skipped += res.Skipped
				total.LatencyNs += res.LatencyNs
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// TierPages returns the number of resident pages per tier, indexed by
// TierID. For compressed tiers this counts stored (logical) pages.
func (m *Manager) TierPages() []int64 {
	out := make([]int64, len(m.tiers))
	for i, b := range m.ba {
		out[i] = b.pages.Load()
	}
	for i, c := range m.cts {
		out[len(m.ba)+i] = c.pages.Load()
	}
	return out
}

// TierFootprintBytes returns each tier's physical footprint in bytes:
// resident pages × 4 KB for byte-addressable tiers, pool pages × 4 KB for
// compressed tiers.
func (m *Manager) TierFootprintBytes() []int64 {
	out := make([]int64, len(m.tiers))
	for i, b := range m.ba {
		out[i] = b.pages.Load() * PageSize
	}
	for i, c := range m.cts {
		// Commit-time page accounting: reads the pool footprint without
		// the tier lock, so TCO sampling never stalls a commit batch.
		out[len(m.ba)+i] = int64(c.tier.LivePoolPages()) * PageSize
	}
	return out
}

// TierTelemetry is the per-tier occupancy and compression snapshot the
// observability layer publishes at every window boundary. All slices are
// indexed by TierID; byte-addressable tiers hold zeros in the
// compression-specific columns.
type TierTelemetry struct {
	// Pages is resident logical pages per tier (TierPages).
	Pages []int64
	// Bytes is the physical footprint per tier (TierFootprintBytes).
	Bytes []int64
	// Ratio is each compressed tier's payload compression ratio
	// (ztier.Stats.Ratio); 0 for byte-addressable or empty tiers.
	Ratio []float64
	// Frag is each compressed tier's zpool internal fragmentation
	// (ztier.Stats.Fragmentation); 0 for byte-addressable or empty tiers.
	Frag []float64
}

// TierTelemetry gathers TierPages, TierFootprintBytes and each compressed
// tier's ratio/fragmentation in one pass. Every value is a pure function
// of placement state, so successive calls without intervening mutations
// are identical — the observability layer's determinism relies on it.
func (m *Manager) TierTelemetry() TierTelemetry {
	n := len(m.tiers)
	tt := TierTelemetry{
		Pages: make([]int64, n),
		Bytes: make([]int64, n),
		Ratio: make([]float64, n),
		Frag:  make([]float64, n),
	}
	for i, b := range m.ba {
		tt.Pages[i] = b.pages.Load()
		tt.Bytes[i] = tt.Pages[i] * PageSize
	}
	for i, c := range m.cts {
		id := len(m.ba) + i
		s := c.tier.Stats()
		tt.Pages[id] = c.pages.Load()
		tt.Bytes[id] = s.PoolBytes()
		tt.Ratio[id] = s.Ratio()
		tt.Frag[id] = s.Fragmentation()
	}
	return tt
}

// CompressedTierStats returns the ztier stats for compressed tier id.
func (m *Manager) CompressedTierStats(id TierID) (ztier.Stats, error) {
	ct, ok := m.ct(id)
	if !ok {
		return ztier.Stats{}, ErrNoSuchTier
	}
	return ct.tier.Stats(), nil
}

// MeasuredRatio returns compressed tier id's observed compression ratio
// (compressed bytes / logical bytes), or fallback if the tier is empty.
func (m *Manager) MeasuredRatio(id TierID, fallback float64) float64 {
	ct, ok := m.ct(id)
	if !ok {
		return fallback
	}
	s := ct.tier.Stats()
	if s.Pages == 0 {
		return fallback
	}
	return float64(s.PoolBytes()) / (float64(s.Pages) * PageSize)
}

// SampleRegionRatio estimates region r's compressibility under the named
// codec by compressing up to samples evenly-spaced pages of the region —
// the daemon-side compressibility probe behind compressibility-aware
// placement (§9's future-work direction ii). The result is clamped to 1
// (incompressible pages are rejected by tiers, so the effective per-page
// cost never exceeds an uncompressed page).
func (m *Manager) SampleRegionRatio(r RegionID, codecName string, samples int) (float64, error) {
	codec, err := compress.Lookup(codecName)
	if err != nil {
		return 0, err
	}
	if samples < 1 {
		samples = 1
	}
	start, end := m.RegionSpan(r)
	if start == end {
		return 0, ErrBadPage
	}
	n := int64(end - start)
	stride := n / int64(samples)
	if stride < 1 {
		stride = 1
	}
	var orig, comp int64
	var buf []byte
	var cs compress.Scratch // this probe's own: one codec state for all its samples
	page := make([]byte, PageSize)
	m.eachSpanLock(start, end, (*sync.RWMutex).RLock)
	defer m.eachSpanLock(start, end, (*sync.RWMutex).RUnlock)
	for p := start; p < end; p += PageID(stride) {
		data := m.content(p, page)
		buf = cs.Compress(codec, buf[:0], data)
		orig += int64(len(data))
		size := int64(len(buf))
		if size > int64(len(data)) {
			size = int64(len(data)) // rejected: stays uncompressed
		}
		comp += size
	}
	if orig == 0 {
		return 1, nil
	}
	return float64(comp) / float64(orig), nil
}

// CompactStats reports what one compaction pass over the manager's
// compressed tiers did.
type CompactStats struct {
	// PagesReclaimed is the total pool pages returned across tiers.
	PagesReclaimed int
	// ObjectsMoved is the total objects relocated to reclaim them.
	ObjectsMoved int
	// BytesMoved is the total compressed bytes those objects added up to.
	BytesMoved int64
	// SkippedTiers counts tiers skipped because nothing was stored to or
	// freed from their pool since their last pass.
	SkippedTiers int
	// CostNs is the modeled daemon cost of the moves.
	CostNs float64
}

// Compact compacts every compressed tier's pool to completion, in tier
// order — the kernel's zs_compact pass TS-Daemon triggers between
// windows. Tiers whose pools saw no stores or frees since their last pass
// are skipped: a fully compacted pool that has not churned has nothing to
// reclaim, so skipping only avoids the scan and never changes the pages
// reclaimed or the modeled cost.
func (m *Manager) Compact() CompactStats {
	m.compactMu.Lock()
	defer m.compactMu.Unlock()
	var cs CompactStats
	for ti, c := range m.cts {
		churn := c.tier.Churn()
		if churn == m.compactSeen[ti] {
			cs.SkippedTiers++
			continue
		}
		r, ns := c.tier.Compact()
		cs.PagesReclaimed += r.PagesReclaimed
		cs.ObjectsMoved += r.ObjectsMoved
		cs.BytesMoved += r.BytesMoved
		cs.CostNs += ns
		m.compactSeen[ti] = churn
	}
	return cs
}

// CompactBudgeted is Compact; the page budget it once took is ignored.
//
// Deprecated: use Compact.
func (m *Manager) CompactBudgeted(int) CompactStats { return m.Compact() }

// Counters reports manager-wide counters.
type Counters struct {
	Faults     int64
	Migrations int64
	Rejects    int64
}

// Counters returns global counters.
func (m *Manager) Counters() Counters {
	return Counters{
		Faults:     m.faults.Load(),
		Migrations: m.migrations.Load(),
		Rejects:    m.rejects.Load(),
	}
}

// RegionResidency returns, for region r, the number of its pages in each
// tier (indexed by TierID), between two span commits.
func (m *Manager) RegionResidency(r RegionID) []int64 {
	out := make([]int64, len(m.tiers))
	start, end := m.RegionSpan(r)
	m.eachSpanLock(start, end, (*sync.RWMutex).RLock)
	defer m.eachSpanLock(start, end, (*sync.RWMutex).RUnlock)
	for _, t := range m.loc[start:end] {
		out[t]++
	}
	return out
}

// DominantTier returns the tier holding the most pages of region r.
func (m *Manager) DominantTier(r RegionID) TierID {
	res := m.RegionResidency(r)
	best := 0
	for i, v := range res {
		if v > res[best] {
			best = i
		}
	}
	return TierID(best)
}
