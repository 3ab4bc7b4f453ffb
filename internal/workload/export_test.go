package workload

// NewBFS builds a BFS workload over a fresh rMat graph.
func NewBFS(n int64, avgDegree int, seed uint64) *BFS {
	return NewBFSOn(NewRMat(n, avgDegree, seed), seed)
}

// NewPageRank builds a PageRank workload over a fresh rMat graph.
func NewPageRank(n int64, avgDegree int, seed uint64) *PageRank {
	return NewPageRankOn(NewRMat(n, avgDegree, seed))
}

// NewGraphSAGE sizes the workload to roughly scalePages, over a fresh
// rMat graph of GraphSAGEVertices(scalePages) vertices.
func NewGraphSAGE(scalePages int64, seed uint64) *GraphSAGE {
	return NewGraphSAGEOn(NewRMat(GraphSAGEVertices(scalePages), GraphSAGEDegree, seed), seed)
}
