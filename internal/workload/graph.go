package workload

import (
	"fmt"

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

// rmatCuts is the quadrant choice as compares: a draw k = Uint64()>>11
// lands in quadrant a (0: neither bit), b (1: v's bit), c (2: u's bit) or
// d (3: both) — the number of cumulative thresholds it reaches. t holds
// each threshold minus one; k and t are below 2^53, so (t-k)>>63 is 1
// exactly when k reaches the threshold, and nothing branches on the draw.
//
// k is the draw's high 32 bits — its first PCG output — over 21 of its low
// ones, so the high word alone decides against a threshold T unless it
// equals T>>21: below, k < (T>>21)<<21 <= T; above, k >= (T>>21+1)<<21 >
// T. hi holds the three T>>21, and only on a draw whose high word is one
// of them (3 values in 2^32) is the low half computed.
type rmatCuts struct{ t, hi [3]uint64 }

// makeRMatCuts builds the compares for three thresholds in [1, 2^53].
func makeRMatCuts(thresholds [3]uint64) rmatCuts {
	var c rmatCuts
	for i, t := range thresholds {
		c.t[i] = t - 1
		c.hi[i] = t >> 21
	}
	return c
}

// edge draws one edge: a quadrant per level, one Uint64 draw each, u
// taking the quadrant's high bit and v its low bit. The generator
// advances two steps a draw whichever path decides it, so every later
// draw is the one it always was.
func (c *rmatCuts) edge(rng *stats.RNG, levels uint) (u, v uint64) {
	r := *rng
	h0, h1, h2 := c.hi[0], c.hi[1], c.hi[2]
	for l := uint(0); ; l++ {
		// The loop proper calls nothing, so the generator stays in
		// registers; it stops at a draw the high word cannot decide.
		for ; l < levels; l++ {
			hi32, next := r.Uint64Hi()
			hi := uint64(hi32)
			if hi == h0 || hi == h1 || hi == h2 {
				break
			}
			r = next
			q := (h0-hi)>>63 + (h1-hi)>>63 + (h2-hi)>>63
			u |= (q >> 1) << (l & 63)
			v |= (q & 1) << (l & 63)
		}
		if l == levels {
			break
		}
		q := c.whole(&r)
		u |= (q >> 1) << (l & 63)
		v |= (q & 1) << (l & 63)
	}
	*rng = r
	return u, v
}

// whole draws rng's next Uint64 and returns its quadrant on all 53 bits.
func (c *rmatCuts) whole(rng *stats.RNG) uint64 {
	k := rng.Uint64() >> 11
	return (c.t[0]-k)>>63 + (c.t[1]-k)>>63 + (c.t[2]-k)>>63
}

// NewRMat generates an rMat graph with n vertices (rounded up to a power
// of two) and avgDegree·n edges using the standard (0.57, 0.19, 0.19)
// partition probabilities, then builds the CSR layout.
func NewRMat(n int64, avgDegree int, seed uint64) *Graph {
	// Round n up to a power of two (rMat requirement).
	np := int64(1)
	for np < n {
		np <<= 1
	}
	n = np
	m := n * int64(avgDegree)
	rng := stats.MakeRNG(seed ^ 0x724d6174) // "rMat"

	deg := make([]int32, n)
	src := make([]int32, m)
	dst := make([]int32, m)
	levels := uint(0)
	for v := int64(1); v < n; v <<= 1 {
		levels++
	}
	cuts := makeRMatCuts([3]uint64{rmatThreshold(rmatA), rmatThreshold(rmatAB), rmatThreshold(rmatABC)})
	for e := int64(0); e < m; e++ {
		u, v := cuts.edge(&rng, levels)
		src[e], dst[e] = int32(u), int32(v)
		deg[u]++
	}
	g := &Graph{n: n, m: m}
	g.offsets = make([]int64, n+1)
	for i := int64(0); i < n; i++ {
		g.offsets[i+1] = g.offsets[i] + int64(deg[i])
	}
	g.edges = make([]int32, m)
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for e := int64(0); e < m; e++ {
		u := src[e]
		g.edges[cursor[u]] = dst[e]
		cursor[u]++
	}
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
	rounds  int64
}

// NewBFS builds a BFS workload over a fresh rMat graph.
func NewBFS(n int64, avgDegree int, seed uint64) *BFS {
	return NewBFSOn(NewRMat(n, avgDegree, seed), seed)
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
	b.rounds++
}

// Name implements Workload.
func (*BFS) Name() string { return "BFS" }

// NumPages implements Workload.
func (b *BFS) NumPages() int64 { return b.g.NumPages() }

// Content implements Workload: CSR arrays are structured binary data.
func (*BFS) Content() corpus.Profile { return corpus.Binary }

// BaseOpNs implements Workload: queue pop + loop bookkeeping.
func (*BFS) BaseOpNs() float64 { return 300 }

// Rounds returns how many searches have started.
func (b *BFS) Rounds() int64 { return b.rounds }

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
	iter int64
}

// NewPageRank builds a PageRank workload over a fresh rMat graph.
func NewPageRank(n int64, avgDegree int, seed uint64) *PageRank {
	return NewPageRankOn(NewRMat(n, avgDegree, seed))
}

// NewPageRankOn builds a PageRank workload over g, which it only reads:
// the vertex cursor and iteration count are its own.
func NewPageRankOn(g *Graph) *PageRank { return &PageRank{g: g} }

// Name implements Workload.
func (*PageRank) Name() string { return "PageRank" }

// NumPages implements Workload.
func (p *PageRank) NumPages() int64 { return p.g.NumPages() }

// Content implements Workload.
func (*PageRank) Content() corpus.Profile { return corpus.Binary }

// BaseOpNs implements Workload: rank arithmetic.
func (*PageRank) BaseOpNs() float64 { return 400 }

// Iterations returns completed full passes.
func (p *PageRank) Iterations() int64 { return p.iter }

// NextOp implements Workload.
func (p *PageRank) NextOp(buf []Access) []Access {
	v := p.next
	p.next++
	if p.next >= p.g.n {
		p.next = 0
		p.iter++
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
