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
// each built once however many jobs ask; the access streams they replay,
// each generated once for every job of one workload at one scale (a
// workload reads nothing back from the manager, so the jobs of a figure
// row, one per model, step the same stream); and the compressed form of
// the pages they demote, each compressed once however many managers ask
// (the jobs run different models over the same generated pages). One
// runJobs call owns one table — it reaches the jobs through Scale.inputs
// and nothing else refers to it, so graphs, streams and memo are garbage
// as soon as the figure returns. There is deliberately no process-wide
// cache: a sweep's inputs live exactly as long as the sweep.
type inputs struct {
	mu     sync.Mutex
	graphs map[graphKey]*graphEntry

	// streams holds one slot per stream that two or more jobs step, made
	// before the jobs start and never changed after (so read without mu);
	// streamLeft is what remains of the recordings' budget.
	streams    map[streamKey]*streamEntry
	streamLeft atomic.Int64

	// memo is handed to every job's manager (runJob.run); nil shares
	// nothing.
	memo *ztier.StoreMemo
}

// storeMemoBudget bounds a figure's memo: the compressed bytes it may hold
// before it stops admitting. At the default scale the hungriest figure
// (Figure 13, six tiers over five codecs) holds 84 MB and Figure 7 30 MB;
// a sweep that runs past the budget loses hits, never a result.
const storeMemoBudget = 128 << 20

// recordingBudget bounds the bytes of a figure's recorded streams (2 an
// access, 4 an op, 8 more an op where BaseOpNs varies). At the default
// scale Figure 7's eight streams take 38 MB; a stream that would run past
// the budget is dropped where it stands and its jobs generate live,
// losing time, never a result.
const recordingBudget = 64 << 20

// newInputs makes the table of one figure. A variable so that tests can
// watch a table's lifetime, run figures with no memo, with one whose
// budget runs out mid-sweep or that verifies its hits, or give the
// recordings another budget.
var newInputs = func() *inputs {
	in := &inputs{memo: ztier.NewStoreMemo(storeMemoBudget)}
	in.streamLeft.Store(recordingBudget)
	return in
}

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
		js := j.effectiveScale(s)
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

// streamKey names a recorded stream: the workload spec's name and the
// effective Scale of the jobs that step it (its inputs field nil), which
// fixes the op count, Windows × OpsPerWindow.
type streamKey struct {
	name  string
	scale Scale
}

func streamKeyOf(spec WorkloadSpec, s Scale) streamKey {
	s.inputs = nil
	return streamKey{spec.Name, s}
}

// streamEntry is one stream's single-flight slot, like graphEntry. A nil
// rec with a nil err is a stream the budget refused: its jobs go live.
type streamEntry struct {
	once sync.Once
	rec  *workload.Recording
	err  error
}

// recordings counts streams recorded on behalf of figures, so tests can
// assert how many a figure recorded.
var recordings atomic.Int64

// planStreams makes the table's slot for every stream two or more of jobs
// will step, and returns the first job of each, in first use order. A
// stream only one job steps gets no slot and is generated live by that
// job: recording it would only add a copy. Jobs that share a stream key
// but whose specs name different graphs are an error: a spec's name must
// identify its stream (WorkloadSpec.Name), or the later jobs would
// silently replay the first one's.
func (in *inputs) planStreams(s Scale, jobs []runJob) ([]runJob, error) {
	in.streams = make(map[streamKey]*streamEntry)
	type use struct {
		jobs  int
		graph graphKey // zero for a spec over no graph
	}
	uses := make(map[streamKey]*use)
	var first []runJob
	for _, j := range jobs {
		js := j.effectiveScale(s)
		k := streamKeyOf(j.spec, js)
		var g graphKey
		if j.spec.graph != nil {
			vertices, degree := j.spec.graph(js)
			g = graphKey{vertices, degree, js.Seed}
		}
		u := uses[k]
		if u == nil {
			u = &use{graph: g}
			uses[k] = u
		} else if u.graph != g {
			return nil, fmt.Errorf("experiments: two workload specs named %s step different graphs (%+v, %+v); a name must identify one stream",
				j.spec.Name, u.graph, g)
		}
		if u.jobs++; u.jobs == 2 {
			in.streams[k] = new(streamEntry)
			first = append(first, j)
		}
	}
	return first, nil
}

// stream returns the recording of spec's stream at s, recording it if this
// is the first request, or nil when the job should generate live: the
// stream is not shared, there is no table, or the budget refused it. A
// failure to build or step the workload is every requester's error.
func (in *inputs) stream(spec WorkloadSpec, s Scale) (*workload.Recording, error) {
	if in == nil {
		return nil, nil
	}
	e := in.streams[streamKeyOf(spec, s)]
	if e == nil {
		return nil, nil
	}
	e.once.Do(func() { e.rec, e.err = in.record(spec, s) })
	return e.rec, e.err
}

// record builds spec's workload at s and records the ops its jobs step,
// under the table's budget. A panic (a failed graph build, a NextOp that
// panics) is turned into the error every job of the stream reports.
func (in *inputs) record(spec WorkloadSpec, s Scale) (rec *workload.Recording, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, fmt.Errorf("experiments: building workload %s: %v", spec.Name, r)
		}
	}()
	ops := s.Windows * s.OpsPerWindow
	if in.streamLeft.Load() < 4*int64(ops) {
		return nil, nil // spent: not even the op table fits, so build nothing
	}
	rec = workload.Record(spec.New(s), ops, func(n int64) bool {
		if in.streamLeft.Add(-n) < 0 {
			in.streamLeft.Add(n)
			return false
		}
		return true
	})
	if rec != nil {
		recordings.Add(1)
	}
	return rec, nil
}
