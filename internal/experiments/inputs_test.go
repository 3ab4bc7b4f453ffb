package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierscape/internal/mem"
	"tierscape/internal/model"
	"tierscape/internal/workload"
	"tierscape/internal/ztier"
)

// tinyScale is a Figure 7 that runs in a fraction of a second: the same 56
// jobs and the same two distinct rMat graphs, on two-region footprints.
func tinyScale() Scale {
	return Scale{
		KVPages: 2 * mem.RegionPages, GraphVertices: 1 << 12, XSPages: 2 * mem.RegionPages,
		SagePages: 2 * mem.RegionPages, OpsPerWindow: 1000, Windows: 2, SampleRate: 20, Seed: 42,
	}
}

// withStoreMemo runs f with every figure's memo made by mk (nil: none).
func withStoreMemo(t *testing.T, mk func() *ztier.StoreMemo, f func()) {
	t.Helper()
	defer func(was func() *inputs) { newInputs = was }(newInputs)
	was := newInputs
	newInputs = func() *inputs {
		in := was()
		in.memo = nil
		if mk != nil {
			in.memo = mk()
		}
		return in
	}
	f()
}

// oneSlab is a memo budget that buys a single slab (ztier's memoSlabSize):
// admission stops almost as soon as a sweep starts.
const oneSlab = 128 << 10

// withRecordingBudget runs f with every figure's recorded streams held to
// budget bytes (0: every job generates live).
func withRecordingBudget(budget int64, f func()) {
	defer func(was func() *inputs) { newInputs = was }(newInputs)
	mk := newInputs
	newInputs = func() *inputs {
		in := mk()
		in.streamLeft.Store(budget)
		return in
	}
	f()
}

// captureFigure runs fig at s and GOMAXPROCS procs and returns its table
// and its JSONL event stream.
func captureFigure(t *testing.T, procs int, s Scale, fig func(Scale) (*Table, error)) (table, stream string) {
	t.Helper()
	var buf bytes.Buffer
	s.Events = &buf
	withProcs(procs, func() {
		tab, err := fig(s)
		if err != nil {
			t.Fatal(err)
		}
		table = tab.String()
	})
	return table, buf.String()
}

// TestFig7SharedInputsIdenticalTable: drawing graphs, access streams and
// compressed pages from the figure's table must change nothing a run can
// observe. The reference is the same figure sharing nothing — every job
// building its own graph (the lineup's constructors with the table hidden
// from them), generating its own stream (no recording budget) and
// compressing its own pages (no memo) — serial; the shared sweep must
// match its table and its JSONL event stream byte for byte at every
// GOMAXPROCS (the runner's width), and so must one whose memo or
// recording budget admits nothing or runs out a moment into the sweep.
// The colocation exhibit, whose managers need the recorded workload
// itself, is held to the same bytes with and without recordings.
func TestFig7SharedInputsIdenticalTable(t *testing.T) {
	s := tinyScale()
	private := Workloads()
	for i := range private {
		build := private[i].New
		private[i].graph = nil
		private[i].New = func(s Scale) workload.Workload {
			s.inputs = nil
			return build(s)
		}
	}
	before := rmatBuilds.Load()
	var wantTable, wantStream string
	withStoreMemo(t, nil, func() {
		withRecordingBudget(0, func() {
			wantTable, wantStream = captureFigure(t, 1, s, func(s Scale) (*Table, error) { return fig7(s, private) })
		})
	})
	if n := rmatBuilds.Load() - before; n != 21 {
		t.Fatalf("the per-job reference built %d graphs, want 21 (three graph workloads × seven jobs)", n)
	}
	if !strings.Contains(wantStream, `"e":"window"`) {
		t.Fatal("reference stream carries no window snapshots")
	}
	for _, procs := range []int{1, 2, 8} {
		recorded := recordings.Load()
		table, stream := captureFigure(t, procs, s, Fig7)
		if table != wantTable {
			t.Errorf("GOMAXPROCS=%d: table differs from per-job builds", procs)
		}
		if stream != wantStream {
			t.Errorf("GOMAXPROCS=%d: event stream differs from per-job builds", procs)
		}
		if n := recordings.Load() - recorded; n != 8 {
			t.Errorf("GOMAXPROCS=%d: %d streams recorded, want 8", procs, n)
		}
	}
	for _, budget := range []int64{0, oneSlab} {
		var memo *ztier.StoreMemo
		withStoreMemo(t, func() *ztier.StoreMemo { memo = ztier.NewStoreMemo(budget); return memo }, func() {
			table, stream := captureFigure(t, 2, s, Fig7)
			if table != wantTable || stream != wantStream {
				t.Errorf("memo budget %d: table or event stream differs from the unshared figure", budget)
			}
		})
		// A memo that stopped admitting part-way still answers with what it has.
		if st := memo.Stats(); st.Bytes != budget || st.Lookups == 0 || (st.Hits > 0) != (budget > 0) || st.Hits == st.Lookups {
			t.Errorf("memo budget %d: stats %+v", budget, st)
		}
	}
	// A budget of one chunk less a byte refuses the first stream's first
	// chunk, and so every stream's; a budget of one chunk admits the
	// first stream (the runner's first recording task, at one worker; at
	// this scale it fits a chunk) and leaves the rest a spent budget, for
	// which nothing is built. Either way the refused streams' jobs
	// generate live.
	const chunk = recordChunk
	for _, budget := range []int64{chunk - 1, chunk} {
		withRecordingBudget(budget, func() {
			recorded := recordings.Load()
			table, stream := captureFigure(t, 1, s, Fig7)
			if table != wantTable || stream != wantStream {
				t.Errorf("recording budget %d: table or event stream differs from the unshared figure", budget)
			}
			want := int64(0)
			if budget == chunk {
				want = 1
			}
			if n := recordings.Load() - recorded; n != want {
				t.Errorf("recording budget %d: %d streams recorded, want %d", budget, n, want)
			}
		})
	}

	// The colocation exhibit's managers are built from the workload that
	// produced each recording — a Colocated, whose composite content
	// source a replay cannot give — so its recorded streams too leave the
	// table and event stream byte-identical to live generation. At the
	// small scale (not the tiny one, where AM-TCO places both contents
	// alike) a manager built from the replay moves the colocated row.
	s = SmallScale()
	withRecordingBudget(0, func() {
		wantTable, wantStream = captureFigure(t, 1, s, Colocation)
	})
	for _, procs := range []int{1, 2, 8} {
		recorded := recordings.Load()
		table, stream := captureFigure(t, procs, s, Colocation)
		if table != wantTable {
			t.Errorf("colocation, GOMAXPROCS=%d: table differs from live generation:\n%s\nwant:\n%s", procs, table, wantTable)
		}
		if stream != wantStream {
			t.Errorf("colocation, GOMAXPROCS=%d: event stream differs from live generation", procs)
		}
		if n := recordings.Load() - recorded; n != 3 {
			t.Errorf("colocation, GOMAXPROCS=%d: %d streams recorded, want 3 (two solo tenants and the pair)", procs, n)
		}
	}
}

// TestRecordBudget: a budget that refuses a stream part-way gets back
// every chunk it granted and the caller gets no recording; one that grants
// exactly what a stream needs gets the whole stream, and each replay of
// it is the live stream op for op — accesses and BaseOpNs — and then
// empty ops.
func TestRecordBudget(t *testing.T) {
	s := tinyScale()
	s.OpsPerWindow = 10000
	spec := workloadByName("Redis/YCSB")
	record := func(budget int64) (*recording, int64) {
		in := new(inputs)
		in.streamLeft.Store(budget)
		rec, err := in.record(spec, s)
		if err != nil {
			t.Fatal(err)
		}
		return rec, in.streamLeft.Load()
	}
	rec, left := record(1 << 30)
	need := 1<<30 - left
	if rec == nil || need < 2*recordChunk || need != int64(len(rec.chunks))*recordChunk {
		t.Fatalf("recording %v took %d bytes; want one of two or more whole chunks", rec != nil, need)
	}
	for _, budget := range []int64{recordChunk - 1, need - recordChunk, need - 1} {
		if refused, left := record(budget); refused != nil || left != budget {
			t.Errorf("budget %d of %d: recording %v, %d bytes left, want none and all %d back",
				budget, need, refused != nil, left, budget)
		}
	}
	if exact, left := record(need); exact == nil || left != 0 {
		t.Errorf("an exact budget of %d bytes: recording %v, %d left", need, exact != nil, left)
	}
	for range 2 {
		live := spec.New(s)
		replay, err := rec.replay()
		if err != nil {
			t.Fatal(err)
		}
		var want, got []workload.Access
		for i := 0; i < s.Windows*s.OpsPerWindow; i++ {
			want = live.NextOp(want[:0])
			got = replay.NextOp(got[:0])
			if !slices.Equal(got, want) || replay.BaseOpNs() != live.BaseOpNs() {
				t.Fatalf("op %d: replay %v (base %v), live %v (base %v)", i, got, replay.BaseOpNs(), want, live.BaseOpNs())
			}
		}
		if got = replay.NextOp(got[:0]); len(got) != 0 {
			t.Errorf("op past the recording: %v, want none", got)
		}
	}
}

// TestSweepBuildsEachInputOnce: Figure 7's 21 graph jobs need two distinct
// graphs (BFS and PageRank share one, GraphSAGE has its own) and build
// exactly those, and its 56 jobs step eight distinct streams (one per
// workload, shared by its seven models) and record exactly those, at any
// runner width.
func TestSweepBuildsEachInputOnce(t *testing.T) {
	for _, procs := range []int{1, 8} {
		withProcs(procs, func() {
			graphs, streams := rmatBuilds.Load(), recordings.Load()
			if _, err := Fig7(tinyScale()); err != nil {
				t.Fatal(err)
			}
			if n := rmatBuilds.Load() - graphs; n != 2 {
				t.Errorf("GOMAXPROCS=%d: Fig7 built %d rMat graphs, want 2", procs, n)
			}
			if n := recordings.Load() - streams; n != 8 {
				t.Errorf("GOMAXPROCS=%d: Fig7 recorded %d streams, want 8", procs, n)
			}
		})
	}
}

// TestFigureReleasesInputs: what a figure builds dies with it. After Fig7
// returns, its input table — and every graph, recorded stream and memo of
// compressed pages in it, megabytes while the figure ran — is unreachable:
// no process-wide cache, no job or manager left holding a share. Each
// object carries a finalizer, and the test collects until all have run,
// within a bounded number of GC cycles. It asserts reachability, not heap
// bytes, so other tests' garbage cannot fail it.
func TestFigureReleasesInputs(t *testing.T) {
	var table *inputs
	defer func(was func() *inputs) { newInputs = was }(newInputs)
	newInputs = func() *inputs {
		table = &inputs{memo: ztier.NewStoreMemo(storeMemoBudget)}
		table.streamLeft.Store(recordingBudget)
		return table
	}
	if _, err := Fig7(tinyScale()); err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int64
	watched := watchTable(t, table, &freed)
	table = nil // the test's own reference
	deadline := time.Now().Add(10 * time.Second)
	for cycles := 0; freed.Load() < watched; cycles++ {
		if cycles == 100 || time.Now().After(deadline) {
			t.Fatalf("%d of the figure's %d inputs (table, memo, graphs, streams) still reachable after %d GC cycles",
				watched-freed.Load(), watched, cycles)
		}
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
}

// watchTable sets a finalizer that counts into freed on the table, its
// memo, its graphs and its recorded streams, checks there is enough of
// each for their release to show, and returns how many it watches.
func watchTable(t *testing.T, in *inputs, freed *atomic.Int64) int64 {
	t.Helper()
	var n int64
	watch := func(p any) {
		runtime.SetFinalizer(p, func(any) { freed.Add(1) })
		n++
	}
	if held := in.memo.Stats().Bytes; held < 1<<20 {
		t.Fatalf("the figure's memo held %d bytes; too little for its release to show", held)
	}
	watch(in)
	watch(in.memo)
	for _, e := range in.graphs {
		watch(e.g)
	}
	streams := 0
	for _, e := range in.streams {
		if e.rec != nil {
			watch(e.rec)
			streams++
		}
	}
	if len(in.graphs) != 2 || streams != 8 {
		t.Fatalf("the figure's table holds %d graphs and %d recorded streams, want 2 and 8", len(in.graphs), streams)
	}
	return n
}

// TestSharedInputBuildFailure: a graph build that panics must fail every
// job that needs the graph, each the same way, and the set must report
// the lowest-index one at any runner width — a bare sync.Once would give
// the first job the panic and the rest a nil graph.
func TestSharedInputBuildFailure(t *testing.T) {
	s := tinyScale()
	s.GraphVertices = 1 << 62 // vertices × degree overflows: make panics
	jobs := []runJob{
		{spec: workloadByName("Redis/YCSB")},
		{spec: workloadByName("PageRank")},
		{spec: workloadByName("BFS")},
		{spec: workloadByName("BFS")},
	}
	var first string
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			before := rmatBuilds.Load()
			results, err := runJobs(s, jobs)
			if err == nil || results != nil {
				t.Fatalf("GOMAXPROCS=%d: err = %v, results = %v; want the build failure", procs, err, results)
			}
			if n := rmatBuilds.Load() - before; n != 1 {
				t.Errorf("GOMAXPROCS=%d: %d build attempts, want 1", procs, n)
			}
			if !strings.Contains(err.Error(), "building workload PageRank") || !strings.Contains(err.Error(), "rMat graph") {
				t.Errorf("GOMAXPROCS=%d: err = %v, want job 1's (PageRank) graph build failure", procs, err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("GOMAXPROCS=%d: err = %q, want %q as at GOMAXPROCS=1", procs, err, first)
			}
		})
	}

	// A workload that panics while its stream is recorded fails every job
	// that steps the stream with that one panic, and no other job.
	calls := 0
	panicky := WorkloadSpec{Name: "panicky", New: func(s Scale) workload.Workload {
		calls++
		return &panicAfter{Workload: workload.Redis(s.KVPages, s.Seed), ops: 100}
	}}
	jobs = []runJob{
		{spec: workloadByName("Redis/YCSB")},
		{spec: panicky, mdl: &model.Waterfall{Pct: 25}},
		{spec: panicky},
		{spec: workloadByName("Redis/YCSB"), mdl: &model.Waterfall{Pct: 25}},
	}
	first = ""
	for _, procs := range []int{1, 2, 8} {
		withProcs(procs, func() {
			calls = 0
			results, err := runJobs(s, jobs)
			if err == nil || results != nil {
				t.Fatalf("GOMAXPROCS=%d: err = %v, results = %v; want the recording's panic", procs, err, results)
			}
			if calls != 1 {
				t.Errorf("GOMAXPROCS=%d: the panicking workload was built %d times, want once (for its recording)", procs, calls)
			}
			if !strings.Contains(err.Error(), "building workload panicky") || !strings.Contains(err.Error(), "op 100") {
				t.Errorf("GOMAXPROCS=%d: err = %v, want the recording's panic at op 100", procs, err)
			}
			if first == "" {
				first = err.Error()
			} else if err.Error() != first {
				t.Errorf("GOMAXPROCS=%d: err = %q, want %q as at GOMAXPROCS=1", procs, err, first)
			}
		})
	}
	in := newInputs()
	s.inputs = in
	if _, err := in.planStreams(s, jobs); err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		_, _, err := j.newWorkload(j.effectiveScale(s))
		if wantErr := j.spec.Name == "panicky"; (err != nil) != wantErr || (wantErr && err.Error() != first) {
			t.Errorf("job %d (%s): err = %v, want the recording's panic: %v", i, j.spec.Name, err, wantErr)
		}
	}
	s.inputs = nil

	// Every waiter on one slot reads the same outcome.
	in = new(inputs)
	k := graphKey{1 << 62, 8, 1}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var g *workload.Graph
			if g, errs[i] = in.graph(k); g != nil {
				errs[i] = fmt.Errorf("waiter %d got a graph", i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || err != errs[0] {
			t.Errorf("waiter %d: err = %v, want the builder's %v", i, err, errs[0])
		}
	}
}

// panicAfter is a workload whose NextOp panics on its op-th call.
type panicAfter struct {
	workload.Workload
	ops, done int
}

func (p *panicAfter) NextOp(buf []workload.Access) []workload.Access {
	if p.done == p.ops {
		panic(fmt.Sprintf("panicAfter: op %d", p.ops))
	}
	p.done++
	return p.Workload.NextOp(buf)
}

// TestStreamNameClash: one figure's jobs replay one stream per spec name
// and scale, so two specs of one name over different graphs would hand
// the second spec's jobs the first one's stream. The runner refuses the
// set before any job runs instead.
func TestStreamNameClash(t *testing.T) {
	s := tinyScale()
	bfs := workloadByName("BFS")
	smaller := bfs
	smaller.graph = func(s Scale) (int64, int) { return s.GraphVertices / 2, 8 }
	before := rmatBuilds.Load()
	results, err := runJobs(s, []runJob{{spec: bfs}, {spec: smaller}})
	if err == nil || results != nil || !strings.Contains(err.Error(), "named BFS step different graphs") {
		t.Fatalf("err = %v, results = %v; want the name clash refused", err, results)
	}
	if n := rmatBuilds.Load() - before; n != 0 {
		t.Errorf("%d graphs built for a refused set, want none", n)
	}
}
