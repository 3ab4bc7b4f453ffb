package workload

import (
	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/stats"
)

// XSBench simulates the XSBench macroscopic cross-section lookup kernel
// (Tramm et al.), the paper's 119 GB workload. The data structure is the
// unionized energy grid: a sorted grid array plus a large table of
// per-(gridpoint, nuclide) cross-section data. One op is one macroscopic
// XS lookup:
//
//  1. sample a particle energy,
//  2. binary-search the unionized grid (log2(G) touches, concentrated
//     near the grid's "hot" middle levels),
//  3. read the cross sections of the materials' nuclides at that grid
//     point (wide, nearly uniform scatter over the big table).
//
// The resulting profile — small hot search structure, huge uniformly-warm
// table — is what makes XSBench a stress test for tiering systems.
type XSBench struct {
	rng        *stats.RNG
	gridPoints int64
	nuclides   int64
	gridPages  int64
	tablePage0 mem.PageID
	tablePages int64
}

// xsEntryBytes is the unionized-grid entry size (energy + index).
const xsEntryBytes = 16

// xsPointBytes is the per-(gridpoint,nuclide) XS record (5 reaction
// channels × 8 B).
const xsPointBytes = 40

// NewXSBench sizes the kernel to roughly scalePages of data: the XS table
// dominates, with nuclides per material fixed at the XL-run's typical mix.
func NewXSBench(scalePages int64, seed uint64) *XSBench {
	x := &XSBench{rng: stats.NewRNG(seed ^ 0x5853)}
	x.nuclides = 68 // large material's nuclide count in XSBench
	budgetBytes := scalePages * mem.PageSize
	// table = gridPoints * nuclides * xsPointBytes ≈ budget.
	x.gridPoints = budgetBytes / (x.nuclides*xsPointBytes + xsEntryBytes)
	if x.gridPoints < 64 {
		x.gridPoints = 64
	}
	x.gridPages = pagesFor(x.gridPoints * xsEntryBytes)
	x.tablePage0 = mem.PageID(x.gridPages)
	x.tablePages = pagesFor(x.gridPoints * x.nuclides * xsPointBytes)
	return x
}

// Name implements Workload.
func (*XSBench) Name() string { return "XSBench" }

// NumPages implements Workload.
func (x *XSBench) NumPages() int64 { return x.gridPages + x.tablePages }

// Content implements Workload: XS data is floating-point tables —
// structured binary.
func (*XSBench) Content() corpus.Profile { return corpus.Binary }

// BaseOpNs implements Workload: RNG + interpolation arithmetic.
func (*XSBench) BaseOpNs() float64 { return 800 }

// NextOp implements Workload.
func (x *XSBench) NextOp(buf []Access) []Access {
	// Binary search over the unionized grid.
	lo, hi := int64(0), x.gridPoints-1
	target := x.rng.Int63n(x.gridPoints)
	lastPage := mem.PageID(-1)
	for lo < hi {
		mid := (lo + hi) / 2
		if p := mem.PageID(mid * xsEntryBytes / mem.PageSize); p != lastPage {
			buf = append(buf, Access{Page: p})
			lastPage = p
		}
		// Which half holds the target is a coin flip at every level: two
		// conditional moves, not a branch to mispredict.
		below := mid < target
		if below {
			lo = mid + 1
		}
		if !below {
			hi = mid
		}
	}
	// Read a material's nuclides at this grid point. The nuclide records
	// for one grid point are contiguous; a material reads a subset.
	nNuc := 5 + x.rng.Intn(8)
	base := lo * x.nuclides * xsPointBytes
	lastPage = -1
	for i := 0; i < nNuc; i++ {
		nuc := x.rng.Int63n(x.nuclides)
		off := base + nuc*xsPointBytes
		if p := x.tablePage0 + mem.PageID(off/mem.PageSize); p != lastPage {
			buf = append(buf, Access{Page: p})
			lastPage = p
		}
	}
	return buf
}
