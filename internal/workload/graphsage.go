package workload

import (
	"tierscape/internal/corpus"
	"tierscape/internal/mem"
	"tierscape/internal/stats"
)

// GraphSAGE simulates minibatch GNN training (Hamilton et al.) on an
// ogbn-products-scale graph: the dominant memory object is the node
// feature matrix; each op samples a seed vertex and a two-hop sampled
// neighborhood (fanouts 10 and 5, GraphSAGE's defaults scaled down),
// gathers their feature rows, and writes the seed's embedding row.
//
// Feature-gather locality follows the graph: hub-adjacent rows are touched
// constantly (hot), the long tail rarely (cold) — the inductive-learning
// pattern the paper evaluates.
type GraphSAGE struct {
	g         *Graph
	rng       *stats.RNG
	featBytes int64
	featPage0 mem.PageID
	featPages int64
	embPage0  mem.PageID
	embPages  int64
	fanout1   int
	fanout2   int
	// hop1 and hop2 are NextOp's sampled neighborhoods, kept across ops.
	hop1, hop2 []int64
}

const (
	// GraphSAGEDegree is the average degree of the graph GraphSAGE
	// samples over.
	GraphSAGEDegree = 8
	// sageFeatBytes is one node's feature row (ogbn-products: 100 floats).
	sageFeatBytes = 400
)

// GraphSAGEVertices is the vertex count of the graph a GraphSAGE sized to
// a page budget runs over: features get ~90% of the budget.
func GraphSAGEVertices(scalePages int64) int64 {
	n := scalePages * mem.PageSize * 9 / 10 / sageFeatBytes
	if n < 1024 {
		n = 1024
	}
	return n
}

// NewGraphSAGEOn builds the workload over g, which it only reads; the
// feature and embedding matrices are sized to g's vertex count and laid
// out after its CSR pages.
func NewGraphSAGEOn(g *Graph, seed uint64) *GraphSAGE {
	s := &GraphSAGE{g: g, rng: stats.NewRNG(seed ^ 0x5a6e), featBytes: sageFeatBytes, fanout1: 10, fanout2: 5}
	n := g.N()
	s.featPage0 = mem.PageID(g.NumPages())
	s.featPages = pagesFor(n * s.featBytes)
	s.embPage0 = s.featPage0 + mem.PageID(s.featPages)
	s.embPages = pagesFor(n * 64) // 16-float embeddings
	return s
}

// Name implements Workload.
func (*GraphSAGE) Name() string { return "GraphSAGE" }

// NumPages implements Workload.
func (s *GraphSAGE) NumPages() int64 {
	return s.g.NumPages() + s.featPages + s.embPages
}

// Content implements Workload: float feature matrices.
func (*GraphSAGE) Content() corpus.Profile { return corpus.Binary }

// BaseOpNs implements Workload: aggregation GEMV arithmetic dominates.
func (*GraphSAGE) BaseOpNs() float64 { return 15000 }

func (s *GraphSAGE) featurePage(v int64) mem.PageID {
	return s.featPage0 + mem.PageID(v*s.featBytes/mem.PageSize)
}

// sampleNeighbors appends up to k sampled neighbors of v.
func (s *GraphSAGE) sampleNeighbors(v int64, k int, out []int64) []int64 {
	deg := s.g.Degree(v)
	if deg == 0 {
		return out
	}
	for i := 0; i < k; i++ {
		j := s.g.offsets[v] + s.rng.Int63n(deg)
		out = append(out, int64(s.g.edges[j]))
	}
	return out
}

// NextOp implements Workload: one seed's two-hop sampled aggregation.
func (s *GraphSAGE) NextOp(buf []Access) []Access {
	seed := s.rng.Int63n(s.g.N())
	// Hop 1 sampling reads the seed's adjacency.
	buf = append(buf, Access{Page: s.g.offsetPage(seed)})
	if deg := s.g.Degree(seed); deg > 0 {
		buf = append(buf, Access{Page: s.g.edgePage(s.g.offsets[seed])})
	}
	s.hop1 = s.sampleNeighbors(seed, s.fanout1, s.hop1[:0])
	s.hop2 = s.hop2[:0]
	for _, v := range s.hop1 {
		buf = append(buf, Access{Page: s.g.offsetPage(v)})
		s.hop2 = s.sampleNeighbors(v, s.fanout2, s.hop2)
	}
	// Gather features: seed + hop1 + hop2.
	buf = append(buf, Access{Page: s.featurePage(seed)})
	for _, v := range s.hop1 {
		buf = append(buf, Access{Page: s.featurePage(v)})
	}
	for _, v := range s.hop2 {
		buf = append(buf, Access{Page: s.featurePage(v)})
	}
	// Write the seed's embedding.
	buf = append(buf, Access{Page: s.embPage0 + mem.PageID(seed*64/mem.PageSize), Write: true})
	return buf
}
