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
	rng := stats.NewRNG(seed ^ 0x724d6174) // "rMat"

	deg := make([]int32, n)
	src := make([]int32, m)
	dst := make([]int32, m)
	levels := uint(0)
	for v := int64(1); v < n; v <<= 1 {
		levels++
	}
	// One draw per level picks the quadrant: a (neither bit), b (v's bit),
	// c (u's bit) or d (both) — the number q of thresholds the draw
	// reaches, with u taking q's high bit and v its low bit. k and the
	// thresholds are below 2^53, so (t-1-k)>>63 is 1 exactly when k >= t
	// and the loop body has no branches to mispredict.
	ta, tab, tabc := rmatThreshold(rmatA)-1, rmatThreshold(rmatAB)-1, rmatThreshold(rmatABC)-1
	for e := int64(0); e < m; e++ {
		var u, v uint64
		for l := uint(0); l < levels; l++ {
			k := rng.Uint64() >> 11
			q := (ta-k)>>63 + (tab-k)>>63 + (tabc-k)>>63
			u |= (q >> 1) << l
			v |= (q & 1) << l
		}
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
	b.visited = make([]bool, b.g.n)
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
