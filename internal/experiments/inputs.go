package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// inputs is one figure's table of what its jobs share because it is the
// same for all of them and never changes: the rMat graphs they traverse,
// each built once however many jobs ask, and the compressed form of the
// pages they demote, each compressed once however many managers ask (the
// jobs of a figure run different models over the same generated pages).
// One runJobs call owns one table — it reaches the jobs through
// Scale.inputs and nothing else refers to it, so graphs and memo are
// garbage as soon as the figure returns. There is deliberately no
// process-wide cache: a sweep's inputs live exactly as long as the sweep.
type inputs struct {
	mu     sync.Mutex
	graphs map[graphKey]*graphEntry

	// memo is handed to every job's manager (runJob.run); nil shares
	// nothing.
	memo *ztier.StoreMemo
}

// storeMemoBudget bounds a figure's memo: the compressed bytes it may hold
// before it stops admitting. At the default scale the hungriest figure
// (Figure 13, six tiers over five codecs) holds 84 MB and Figure 7 30 MB;
// a sweep that runs past the budget loses hits, never a result.
const storeMemoBudget = 128 << 20

// newStoreMemo makes the memo of one figure. A variable so that tests can
// run figures with none, with a budget that runs out mid-sweep, or with
// verification on.
var newStoreMemo = func() *ztier.StoreMemo { return ztier.NewStoreMemo(storeMemoBudget) }

type graphKey struct {
	vertices int64
	degree   int
	seed     uint64
}

// graphEntry is one single-flight slot. The first job to ask builds under
// once; every job, first or waiting, then reads the same (g, err).
type graphEntry struct {
	once sync.Once
	g    *workload.Graph
	err  error
}

// rmatBuilds counts NewRMat calls made on behalf of workload specs, so
// tests can assert how many graphs a figure built.
var rmatBuilds atomic.Int64

// buildRMat is workload.NewRMat with a panic (absurd dimensions) turned
// into an error, so one failed build fails every job that needs the graph
// the same way instead of leaving the later ones a nil graph.
func buildRMat(k graphKey) (g *workload.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: building rMat graph (vertices=%d, degree=%d, seed=%d): %v",
				k.vertices, k.degree, k.seed, r)
		}
	}()
	rmatBuilds.Add(1)
	return workload.NewRMat(k.vertices, k.degree, k.seed), nil
}

// graph returns the table's graph for k, building it if this is the first
// request. A nil table builds a private graph: a WorkloadSpec used outside
// the runner still works, it just shares nothing.
func (in *inputs) graph(k graphKey) (*workload.Graph, error) {
	if in == nil {
		return buildRMat(k)
	}
	in.mu.Lock()
	e := in.graphs[k]
	if e == nil {
		if in.graphs == nil {
			in.graphs = make(map[graphKey]*graphEntry)
		}
		e = &graphEntry{}
		in.graphs[k] = e
	}
	in.mu.Unlock()
	e.once.Do(func() { e.g, e.err = buildRMat(k) })
	return e.g, e.err
}

// jobGraphs lists the distinct graphs jobs will ask the table for, in first
// use order.
func jobGraphs(s Scale, jobs []runJob) []graphKey {
	var keys []graphKey
	seen := make(map[graphKey]bool)
	for _, j := range jobs {
		if j.spec.graph == nil {
			continue
		}
		js := s
		if j.scale != nil {
			js = *j.scale
		}
		vertices, degree := j.spec.graph(js)
		if k := (graphKey{vertices, degree, js.Seed}); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// rmat is the graph a WorkloadSpec constructor traverses: drawn from the
// running figure's table, or built privately outside one. Constructors
// return no error, so a failed build panics with it; the runner recovers
// that into the job's error (runJob.newWorkload).
func (s Scale) rmat(vertices int64, degree int) *workload.Graph {
	g, err := s.inputs.graph(graphKey{vertices, degree, s.Seed})
	if err != nil {
		panic(err)
	}
	return g
}
