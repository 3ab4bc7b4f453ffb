package workload

import (
	"fmt"
	"runtime"
	"sync"

	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/stats"
)

// Graph is a CSR graph laid out in the simulated address space:
//
//	[ offsets (8 B/vertex) | edges (4 B/edge) | vertex data (8 B/vertex) ]
//
// The graph kernels below run the *real* algorithms over this structure;
// every CSR read/write is reported as a page access, so the tiering system
// sees the genuine locality of graph traversal (hub vertices hot, the
// long adjacency tail cold).
//
// A Graph is immutable once built: any number of kernels, on any number
// of goroutines, may traverse one (NewBFSOn, NewPageRankOn,
// NewGraphSAGEOn), each keeping its own mutable state.
type Graph struct {
	n, m       int64
	offsets    []int64 // CSR row offsets, len n+1
	edges      []int32 // CSR adjacency, len m
	offPage0   mem.PageID
	edgePage0  mem.PageID
	dataPage0  mem.PageID
	totalPages int64
}

// rMat quadrant probabilities (a, b, c; d is the rest), as cumulative
// thresholds on a uniform draw in [0, 1).
const (
	rmatA   = 0.57
	rmatAB  = rmatA + 0.19
	rmatABC = rmatAB + 0.19
)

// rmatThreshold turns a cumulative probability t in [0.5, 1) into the
// integer k for which "rng.Float64() < t" is exactly "rng.Uint64()>>11 <
// k". Float64 is float64(u>>11) / 2^53 with both steps exact (u>>11 has
// 53 bits), and a float64 in [0.5, 1) is a multiple of 2^-53, so t·2^53
// is an integer and the comparison carries over to the integers.
func rmatThreshold(t float64) uint64 { return uint64(t * (1 << 53)) }

// rmatCuts is the quadrant choice: a draw k = Uint64()>>11 lands in
// quadrant a (0: neither bit), b (1: v's bit), c (2: u's bit) or d (3:
// both) — the number of cumulative thresholds it reaches. Three answers,
// each exact where it speaks, cheapest first:
//
//   - k is the draw's high 32 bits — its first PCG output — over 21 of its
//     low ones, so the high word alone decides against a threshold T unless
//     it equals T>>21: below, k < (T>>21)<<21 <= T; above, k >=
//     (T>>21+1)<<21 > T. By the same argument the high word's top 12 bits
//     decide unless they equal T>>41, so quad holds the quadrant of every
//     12-bit prefix, and rmatUndecided for the (at most three) prefixes a
//     T>>41 names.
//   - Under an undecided prefix the high word is compared with hi, the
//     three T>>21: (T>>21 - hi)>>63 is 1 exactly when hi is above.
//   - Only on a high word equal to one of them (3 values in 2^32) is the
//     low half computed and all 53 bits compared with t, each threshold
//     minus one: k and t are below 2^53, so (t-k)>>63 is 1 exactly when k
//     reaches the threshold.
type rmatCuts struct {
	t, hi [3]uint64
	quad  [1 << 12]uint8
}

// rmatUndecided marks a prefix of the high word that a threshold's T>>41
// falls on: the prefix alone cannot place the draw.
const rmatUndecided = 0xff

// makeRMatCuts builds the table and compares for three thresholds in [1,
// 2^53].
func makeRMatCuts(thresholds [3]uint64) rmatCuts {
	var c rmatCuts
	for i, t := range thresholds {
		c.t[i] = t - 1
		c.hi[i] = t >> 21
	}
	for p := range c.quad {
		for _, h := range c.hi {
			if uint64(p) == h>>20 {
				c.quad[p] = rmatUndecided
				break
			}
			if uint64(p) > h>>20 {
				c.quad[p]++
			}
		}
	}
	return c
}

// rmatStd is the quadrant choice at the standard partition probabilities.
var rmatStd = makeRMatCuts([3]uint64{rmatThreshold(rmatA), rmatThreshold(rmatAB), rmatThreshold(rmatABC)})

// edge draws one edge: a quadrant per level, one Uint64 draw each, u
// taking the quadrant's high bit and v its low bit. The generator
// advances two steps a draw whichever path decides it, so every later
// draw is the one it always was, and an edge is exactly 2·levels steps.
func (c *rmatCuts) edge(rng *stats.RNG, levels uint) (u, v uint64) {
	r := *rng
	var uv uint64 // level l's quadrant at bits 2l+1 (u's) and 2l (v's)
	for l := uint(0); ; l++ {
		// The loop proper calls nothing, so the generator stays in
		// registers; it stops at a draw the table cannot decide.
		for ; l < levels; l++ {
			hi32, next := r.Uint64Hi()
			q := c.quad[hi32>>20]
			if q == rmatUndecided {
				break
			}
			r = next
			uv |= uint64(q) << (2 * l & 63)
		}
		if l == levels {
			break
		}
		uv |= c.undecided(&r) << (2 * l & 63)
	}
	*rng = r
	return evenBits(uv >> 1), evenBits(uv)
}

// undecided draws rng's next Uint64 and returns its quadrant: on the high
// word unless it equals a threshold's, on all 53 bits if it does.
func (c *rmatCuts) undecided(rng *stats.RNG) uint64 {
	hi32, next := rng.Uint64Hi()
	hi := uint64(hi32)
	h0, h1, h2 := c.hi[0], c.hi[1], c.hi[2]
	if hi == h0 || hi == h1 || hi == h2 {
		return c.whole(rng)
	}
	*rng = next
	return (h0-hi)>>63 + (h1-hi)>>63 + (h2-hi)>>63
}

// whole draws rng's next Uint64 and returns its quadrant on all 53 bits.
func (c *rmatCuts) whole(rng *stats.RNG) uint64 {
	k := rng.Uint64() >> 11
	return (c.t[0]-k)>>63 + (c.t[1]-k)>>63 + (c.t[2]-k)>>63
}

// evenBits packs x's bits 0, 2, 4, … into the low half: level l's bit of
// the edge's v from the bit pair edge accumulates, or of u from x>>1.
func evenBits(x uint64) uint64 {
	x &= 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	return (x | x>>16) & 0x00000000ffffffff
}

// rmatMinChunk is the fewest edges NewRMat gives a worker: below it the
// worker's goroutine, jump and count array cost about what its draws do.
const rmatMinChunk = 1 << 14

// NewRMat generates an rMat graph with n vertices (rounded up to a power
// of two, at most 2^31: vertex ids are int32) and avgDegree·n edges using
// the standard (0.57, 0.19, 0.19) partition probabilities, then builds
// the CSR layout. It panics on dimensions out of range, and on any panic
// of its workers, always on the calling goroutine.
//
// It uses up to GOMAXPROCS workers, and the graph is the same at every
// count: the edges are drawn in contiguous chunks, one per worker, each
// starting 2·levels·e PCG steps into the serial stream (stats.RNG.Advance)
// — where edge e has always started — and laid out by a counting sort
// whose cursors put worker w's edges of a vertex after those of workers <
// w, so every row keeps stream order.
func NewRMat(n int64, avgDegree int, seed uint64) *Graph {
	if n > 1<<31 {
		panic(fmt.Sprintf("workload: rMat graph of %d vertices: ids are int32", n))
	}
	// Round n up to a power of two (rMat requirement).
	np := int64(1)
	for np < n {
		np <<= 1
	}
	n = np
	m := n * int64(avgDegree)
	if avgDegree < 0 || m/n != int64(avgDegree) {
		panic(fmt.Sprintf("workload: rMat graph of %d vertices × degree %d is out of range", n, avgDegree))
	}
	levels := uint(0)
	for v := int64(1); v < n; v <<= 1 {
		levels++
	}
	workers := min(int64(runtime.GOMAXPROCS(0)), max(1, m/rmatMinChunk))
	first := func(w int) int64 { // worker w's first edge
		return int64(w)*(m/workers) + min(int64(w), m%workers)
	}
	// Everything is allocated here, before any worker starts.
	src := make([]int32, m)
	dst := make([]int32, m)
	counts := make([]int32, workers*n) // worker w's out-degrees at [w·n, (w+1)·n)
	g := &Graph{n: n, m: m, offsets: make([]int64, n+1), edges: make([]int32, m)}
	start := stats.MakeRNG(seed ^ 0x724d6174) // "rMat"

	runWorkers(int(workers), func(w int) {
		lo, hi := first(w), first(w+1)
		rng := start
		rng.Advance(2 * uint64(levels) * uint64(lo))
		rmatDraw(&rng, levels, src[lo:hi], dst[lo:hi], counts[int64(w)*n:][:n])
	})
	// Each worker's count of u becomes its cursor within u's row: the
	// edges of u that lower workers drew — all earlier in the stream —
	// come first.
	for u := int64(0); u < n; u++ {
		row := int32(0)
		for c := u; c < int64(len(counts)); c += n {
			row, counts[c] = row+counts[c], row
		}
		g.offsets[u+1] = g.offsets[u] + int64(row)
	}
	runWorkers(int(workers), func(w int) {
		lo, hi := first(w), first(w+1)
		rmatScatter(g.offsets, g.edges, src[lo:hi], dst[lo:hi], counts[int64(w)*n:][:n])
	})
	// Page layout.
	offPages := pagesFor((n + 1) * 8)
	edgePages := pagesFor(m * 4)
	dataPages := pagesFor(n * 8)
	g.offPage0 = 0
	g.edgePage0 = mem.PageID(offPages)
	g.dataPage0 = mem.PageID(offPages + edgePages)
	g.totalPages = offPages + edgePages + dataPages
	return g
}

// rmatDraw draws len(src) consecutive edges from rng into src and dst and
// counts each source vertex in deg.
func rmatDraw(rng *stats.RNG, levels uint, src, dst, deg []int32) {
	dst = dst[:len(src)]
	for e := range src {
		u, v := rmatStd.edge(rng, levels)
		src[e], dst[e] = int32(u), int32(v)
		deg[u]++
	}
}

// rmatScatter places the edges src/dst into their rows: edge e of source
// u at offsets[u] + cursor[u], which then moves one slot on.
func rmatScatter(offsets []int64, edges, src, dst, cursor []int32) {
	dst = dst[:len(src)]
	for e, u := range src {
		edges[offsets[u]+int64(cursor[u])] = dst[e]
		cursor[u]++
	}
}

// runWorkers runs f(0), …, f(workers-1) at once, f(0) on the calling
// goroutine, and returns when every one has: one worker is a plain call. A
// panic in any worker is recovered where it happens and the lowest
// worker's re-raised here after the join, so a failed build panics on its
// caller and leaves no goroutine behind.
func runWorkers(workers int, f func(w int)) {
	panics := make([]any, workers)
	run := func(w int) {
		defer func() { panics[w] = recover() }()
		f(w)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// N returns the vertex count.
func (g *Graph) N() int64 { return g.n }

// M returns the edge count.
func (g *Graph) M() int64 { return g.m }

// NumPages returns the CSR footprint in pages.
func (g *Graph) NumPages() int64 { return g.totalPages }

// Degree returns vertex v's out-degree.
func (g *Graph) Degree(v int64) int64 { return g.offsets[v+1] - g.offsets[v] }

// Neighbors returns vertex v's adjacency slice.
func (g *Graph) Neighbors(v int64) []int32 {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// offsetPage returns the page holding offsets[v].
func (g *Graph) offsetPage(v int64) mem.PageID {
	return g.offPage0 + mem.PageID(v*8/mem.PageSize)
}

// edgePage returns the page holding edges[i].
func (g *Graph) edgePage(i int64) mem.PageID {
	return g.edgePage0 + mem.PageID(i*4/mem.PageSize)
}

// dataPage returns the page holding vertex v's 8-byte data slot.
func (g *Graph) dataPage(v int64) mem.PageID {
	return g.dataPage0 + mem.PageID(v*8/mem.PageSize)
}

// BFS runs breadth-first searches over an rMat graph, Ligra-style: one op
// processes one frontier vertex (read its offsets and adjacency, check and
// update each unvisited neighbor's parent slot). When a search exhausts
// its frontier a new source restarts, so the workload runs indefinitely.
type BFS struct {
	g       *Graph
	rng     *stats.RNG
	visited []bool
	queue   []int32
	head    int
}

// NewBFSOn builds a BFS workload over g, which it only reads: the visited
// set, the frontier queue and the source RNG are its own.
func NewBFSOn(g *Graph, seed uint64) *BFS {
	b := &BFS{g: g, rng: stats.NewRNG(seed ^ 0xbf5)}
	b.reset()
	return b
}

func (b *BFS) reset() {
	if b.visited == nil {
		b.visited = make([]bool, b.g.n)
	} else {
		clear(b.visited)
	}
	src := b.rng.Int63n(b.g.n)
	b.visited[src] = true
	b.queue = b.queue[:0]
	b.queue = append(b.queue, int32(src))
	b.head = 0
}

// Name implements Workload.
func (*BFS) Name() string { return "BFS" }

// NumPages implements Workload.
func (b *BFS) NumPages() int64 { return b.g.NumPages() }

// Content implements Workload: CSR arrays are structured binary data.
func (*BFS) Content() corpus.Profile { return corpus.Binary }

// BaseOpNs implements Workload: queue pop + loop bookkeeping.
func (*BFS) BaseOpNs() float64 { return 300 }

// NextOp implements Workload: process one frontier vertex.
func (b *BFS) NextOp(buf []Access) []Access {
	if b.head >= len(b.queue) {
		b.reset()
	}
	v := int64(b.queue[b.head])
	b.head++
	// Read offsets[v], offsets[v+1].
	buf = append(buf, Access{Page: b.g.offsetPage(v)})
	lastEdgePage := mem.PageID(-1)
	lastDataPage := mem.PageID(-1)
	for i := b.g.offsets[v]; i < b.g.offsets[v+1]; i++ {
		// Edge array scan: coalesce accesses within one page, as the
		// hardware would (sequential scan hits the same line/page).
		if ep := b.g.edgePage(i); ep != lastEdgePage {
			buf = append(buf, Access{Page: ep})
			lastEdgePage = ep
		}
		w := int64(b.g.edges[i])
		if dp := b.g.dataPage(w); dp != lastDataPage {
			write := !b.visited[w]
			buf = append(buf, Access{Page: dp, Write: write})
			lastDataPage = dp
		}
		if !b.visited[w] {
			b.visited[w] = true
			b.queue = append(b.queue, int32(w))
		}
	}
	return buf
}

// PageRank runs power iterations over an rMat graph: one op relaxes one
// vertex (read its adjacency and neighbors' ranks, write its own rank).
// Vertices are processed in index order, round-robin across iterations —
// the classic scan-heavy, weak-locality kernel.
type PageRank struct {
	g    *Graph
	next int64
}

// NewPageRankOn builds a PageRank workload over g, which it only reads:
// the vertex cursor is its own.
func NewPageRankOn(g *Graph) *PageRank { return &PageRank{g: g} }

// Name implements Workload.
func (*PageRank) Name() string { return "PageRank" }

// NumPages implements Workload.
func (p *PageRank) NumPages() int64 { return p.g.NumPages() }

// Content implements Workload.
func (*PageRank) Content() corpus.Profile { return corpus.Binary }

// BaseOpNs implements Workload: rank arithmetic.
func (*PageRank) BaseOpNs() float64 { return 400 }

// NextOp implements Workload.
func (p *PageRank) NextOp(buf []Access) []Access {
	v := p.next
	p.next++
	if p.next >= p.g.n {
		p.next = 0
	}
	buf = append(buf, Access{Page: p.g.offsetPage(v)})
	lastEdgePage := mem.PageID(-1)
	lastDataPage := mem.PageID(-1)
	for i := p.g.offsets[v]; i < p.g.offsets[v+1]; i++ {
		if ep := p.g.edgePage(i); ep != lastEdgePage {
			buf = append(buf, Access{Page: ep})
			lastEdgePage = ep
		}
		w := int64(p.g.edges[i])
		if dp := p.g.dataPage(w); dp != lastDataPage {
			buf = append(buf, Access{Page: dp})
			lastDataPage = dp
		}
	}
	// Write own rank.
	buf = append(buf, Access{Page: p.g.dataPage(v), Write: true})
	return buf
}

// String describes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("rmat(n=%d, m=%d, pages=%d)", g.n, g.m, g.totalPages)
}
