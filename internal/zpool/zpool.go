// Package zpool implements the compressed-object pool managers TierScape's
// compressed tiers use to store compressed pages, mirroring the three Linux
// zswap pool allocators:
//
//   - zsmalloc — size-class based, densely packs objects into multi-page
//     "zspages"; best space efficiency, highest management overhead.
//   - zbud — at most two objects per 4 KB pool page (one from each end);
//     simple and fast, caps space savings at 50%.
//   - z3fold — at most three objects per 4 KB pool page; caps savings at
//     ~66%, slightly more overhead than zbud.
//
// A pool hands out opaque handles; the tier layer stores the handle in its
// swap-entry analogue. Pools track how many backing pages they consume,
// which is what the TCO model charges for.
package zpool

import (
	"errors"
	"fmt"
)

// PageSize is the pool page size in bytes (4 KB, like the kernel's).
const PageSize = 4096

// Handle identifies a stored object within a pool. Handles are only
// meaningful to the pool that issued them.
//
// Every pool encodes a generation tag in the high 32 bits of the handle
// and a location in the low 32 bits. The location slot's generation is
// bumped when the object is freed, so a stale handle kept across a
// free-then-store cycle can never alias the slot's new occupant: it fails
// the generation check and reports ErrInvalidHandle instead.
type Handle uint64

// Common pool errors.
var (
	ErrTooLarge      = errors.New("zpool: object too large for this pool")
	ErrInvalidHandle = errors.New("zpool: invalid handle")
)

// Stats reports a pool's space accounting.
type Stats struct {
	// Objects is the number of live objects.
	Objects int
	// StoredBytes is the sum of live object sizes.
	StoredBytes int64
	// PoolPages is the number of backing 4 KB pages currently allocated.
	PoolPages int
	// Stores and Frees count operations over the pool's lifetime.
	Stores, Frees int64
}

// CompactResult reports what one compaction pass actually did: how many
// backing pool pages it returned, how many live objects it relocated to
// do so, and how many compressed bytes those objects added up to. The
// tier layer charges the modeled compaction cost from ObjectsMoved and
// BytesMoved — the work really performed — rather than guessing from
// reclaimed pages.
type CompactResult struct {
	// PagesReclaimed is the number of 4 KB pool pages returned.
	PagesReclaimed int
	// ObjectsMoved is the number of live objects relocated.
	ObjectsMoved int
	// BytesMoved is the total compressed size of the relocated objects.
	BytesMoved int64
}

// Add accumulates o into r.
func (r *CompactResult) Add(o CompactResult) {
	r.PagesReclaimed += o.PagesReclaimed
	r.ObjectsMoved += o.ObjectsMoved
	r.BytesMoved += o.BytesMoved
}

// PoolBytes returns the pool's physical footprint in bytes.
func (s Stats) PoolBytes() int64 { return int64(s.PoolPages) * PageSize }

// Density returns stored bytes per pool byte — the pool's packing
// efficiency (1.0 would be perfect packing).
func (s Stats) Density() float64 {
	if s.PoolPages == 0 {
		return 0
	}
	return float64(s.StoredBytes) / float64(s.PoolBytes())
}

// Pool stores variable-size compressed objects in 4 KB pool pages.
// Implementations are not safe for concurrent use; the tier layer
// serializes access per tier.
type Pool interface {
	// Name returns the pool manager's name ("zsmalloc", "zbud", "z3fold").
	Name() string
	// Store copies data into the pool and returns a handle.
	// It returns ErrTooLarge if the object cannot be stored (e.g. zbud
	// cannot hold objects whose size exceeds a page).
	Store(data []byte) (Handle, error)
	// Load appends the object's bytes to dst and returns the extended
	// slice. It returns ErrInvalidHandle if h is not a live handle.
	Load(h Handle, dst []byte) ([]byte, error)
	// Size returns the stored size of the object, or an error.
	Size(h Handle) (int, error)
	// Free releases the object. It returns ErrInvalidHandle if h is not a
	// live handle.
	Free(h Handle) error
	// Compact migrates objects to reduce fragmentation and returns the
	// number of pool pages reclaimed. Only zsmalloc compacts (the
	// kernel's zs_compact); zbud and z3fold return 0. Equivalent to
	// CompactPartial(0).PagesReclaimed.
	Compact() int
	// CompactPartial compacts until at least budgetPages pool pages have
	// been reclaimed (it may overshoot by at most one zspage) or nothing
	// more can be reclaimed; budgetPages <= 0 means unbounded. Pools keep
	// a resume cursor so successive bounded calls continue where the last
	// stopped instead of rescanning from the start. zbud and z3fold have
	// no compactor and return a zero CompactResult.
	CompactPartial(budgetPages int) CompactResult
	// Stats returns current accounting.
	Stats() Stats
}

// New returns a fresh pool by manager name.
func New(name string) (Pool, error) {
	switch name {
	case "zsmalloc":
		return NewZsmalloc(), nil
	case "zbud":
		return NewZbud(), nil
	case "z3fold":
		return NewZ3fold(), nil
	default:
		return nil, fmt.Errorf("zpool: unknown pool manager %q", name)
	}
}
