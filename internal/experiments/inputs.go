package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"tierscape/internal/trace"
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

// recordingBudget bounds the bytes of a figure's recorded streams, traces
// (internal/trace) of about 2 B an access and 1 an op, reserved a
// recordChunk at a time. At the default scale Figure 7's eight streams take
// 34 MB; a stream that would run past the budget is dropped where it
// stands and its jobs generate live, losing time, never a result.
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
// sizing of the jobs that step it — their effective Scale with the
// run-wide settings and the inputs table cleared, since none of them
// changes a stream — which fixes the op count, Windows × OpsPerWindow.
type streamKey struct {
	name  string
	scale Scale
}

func streamKeyOf(spec WorkloadSpec, s Scale) streamKey {
	s.Live, s.Events, s.inputs = nil, nil, nil
	return streamKey{spec.Name, s}
}

// streamEntry is one stream's single-flight slot, like graphEntry. A nil
// rec with a nil err is a stream the budget refused: its jobs go live.
type streamEntry struct {
	once sync.Once
	rec  *recording
	err  error
}

// recordChunk is how many bytes of a recording are reserved and allocated
// at a time; growth never copies.
const recordChunk = 64 << 10

// errBudget is a recording's write refused by the figure's budget.
var errBudget = errors.New("experiments: recording budget spent")

// recording is one shared stream: a trace of its first ops, written into
// chunks each reserved from the figure's budget before it is made, next
// to the workload it was recorded from. The workload is the one the jobs'
// managers are built from — a Colocated's composite content source is not
// in the trace. A recording is immutable once recorded and each job reads
// it through its own trace.Reader.
type recording struct {
	src    workload.Workload
	chunks [][]byte
	left   *atomic.Int64 // the budget, while recording
}

// Write implements io.Writer for trace.Record. A chunk the budget refuses
// is a write error.
func (r *recording) Write(p []byte) (int, error) {
	n := 0
	for len(p) > 0 {
		last := len(r.chunks) - 1
		if last < 0 || len(r.chunks[last]) == recordChunk {
			if r.left.Add(-recordChunk) < 0 {
				r.left.Add(recordChunk)
				return n, errBudget
			}
			r.chunks = append(r.chunks, make([]byte, 0, recordChunk))
			last++
		}
		k := min(len(p), recordChunk-len(r.chunks[last]))
		r.chunks[last] = append(r.chunks[last], p[:k]...)
		p, n = p[k:], n+k
	}
	return n, nil
}

// replay returns a reader positioned at the recording's first op.
func (r *recording) replay() (workload.Workload, error) {
	return trace.NewReader(&chunkReader{chunks: r.chunks})
}

// chunkReader reads a recording's chunks in order: one allocation a
// replay, where an io.MultiReader of bytes.Readers makes one a chunk
// (fig_sweep allocs_per_op +1.2 %).
type chunkReader struct {
	chunks [][]byte
	i, off int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.i == len(c.chunks) {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[c.i][c.off:])
	if c.off += n; c.off == len(c.chunks[c.i]) {
		c.i, c.off = c.i+1, 0
	}
	return n, nil
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
func (in *inputs) stream(spec WorkloadSpec, s Scale) (*recording, error) {
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
// under the table's budget. A write the budget refuses, or an op the trace
// format cannot carry, hands every reserved chunk back and leaves the
// stream's jobs to generate live. A panic (a failed graph build, a NextOp
// that panics) is turned into the error every job of the stream reports.
func (in *inputs) record(spec WorkloadSpec, s Scale) (rec *recording, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec, err = nil, fmt.Errorf("experiments: building workload %s: %v", spec.Name, r)
		}
	}()
	if in.streamLeft.Load() <= 0 {
		return nil, nil // spent: build nothing
	}
	rec = &recording{src: spec.New(s), left: &in.streamLeft}
	_, err = trace.Record(rec, rec.src, int64(s.Windows*s.OpsPerWindow))
	rec.left = nil
	if err != nil {
		in.streamLeft.Add(int64(len(rec.chunks)) * recordChunk)
		return nil, nil
	}
	recordings.Add(1)
	return rec, nil
}
