package workload

import (
	"tierscape/internal/mem"
	"tierscape/internal/stats"
)

// The serial rMat generator NewRMat replaced, kept verbatim as the oracle
// the split generator is compared against: one goroutine draws every edge
// in order (the per-level kernel compares the draw's high word with the
// three thresholds), then a serial counting sort lays out the CSR.

type serialCuts struct{ t, hi [3]uint64 }

func makeSerialCuts(thresholds [3]uint64) serialCuts {
	var c serialCuts
	for i, t := range thresholds {
		c.t[i] = t - 1
		c.hi[i] = t >> 21
	}
	return c
}

func (c *serialCuts) edge(rng *stats.RNG, levels uint) (u, v uint64) {
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

func (c *serialCuts) whole(rng *stats.RNG) uint64 {
	k := rng.Uint64() >> 11
	return (c.t[0]-k)>>63 + (c.t[1]-k)>>63 + (c.t[2]-k)>>63
}

func newRMatSerial(n int64, avgDegree int, seed uint64) *Graph {
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
	cuts := makeSerialCuts([3]uint64{rmatThreshold(rmatA), rmatThreshold(rmatAB), rmatThreshold(rmatABC)})
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
