package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"tierscape/internal/mem"
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
	if mk == nil {
		mk = func() *ztier.StoreMemo { return nil }
	}
	defer func(was func() *ztier.StoreMemo) { newStoreMemo = was }(newStoreMemo)
	newStoreMemo = mk
	f()
}

// oneSlab is a memo budget that buys a single slab (ztier's memoSlabSize):
// admission stops almost as soon as a sweep starts.
const oneSlab = 128 << 10

// TestFig7SharedInputsIdenticalTable: drawing graphs and compressed pages
// from the figure's table must change nothing a run can observe. The
// reference is the same figure sharing nothing — every job building its
// own graph (the lineup's constructors with the table hidden from them)
// and compressing its own pages (no memo) — serial; the shared sweep must
// match its table and its JSONL event stream byte for byte at every
// GOMAXPROCS (the runner's width), and so must
// one whose memo admits nothing or fills up a moment into the sweep.
func TestFig7SharedInputsIdenticalTable(t *testing.T) {
	s := tinyScale()
	capture := func(procs int, fig func() (*Table, error)) (table, stream string) {
		var buf bytes.Buffer
		SetEventSink(&buf)
		defer SetEventSink(nil)
		withProcs(procs, func() {
			tab, err := fig()
			if err != nil {
				t.Fatal(err)
			}
			table = tab.String()
		})
		return table, buf.String()
	}
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
		wantTable, wantStream = capture(1, func() (*Table, error) { return fig7(s, private) })
	})
	if n := rmatBuilds.Load() - before; n != 21 {
		t.Fatalf("the per-job reference built %d graphs, want 21 (three graph workloads × seven jobs)", n)
	}
	if !strings.Contains(wantStream, `"e":"window"`) {
		t.Fatal("reference stream carries no window snapshots")
	}
	for _, procs := range []int{1, 2, 8} {
		table, stream := capture(procs, func() (*Table, error) { return Fig7(s) })
		if table != wantTable {
			t.Errorf("GOMAXPROCS=%d: table differs from per-job builds", procs)
		}
		if stream != wantStream {
			t.Errorf("GOMAXPROCS=%d: event stream differs from per-job builds", procs)
		}
	}
	for _, budget := range []int64{0, oneSlab} {
		var memo *ztier.StoreMemo
		withStoreMemo(t, func() *ztier.StoreMemo { memo = ztier.NewStoreMemo(budget); return memo }, func() {
			table, stream := capture(2, func() (*Table, error) { return Fig7(s) })
			if table != wantTable || stream != wantStream {
				t.Errorf("memo budget %d: table or event stream differs from the unshared figure", budget)
			}
		})
		// A memo that stopped admitting part-way still answers with what it has.
		if st := memo.Stats(); st.Bytes != budget || st.Lookups == 0 || (st.Hits > 0) != (budget > 0) || st.Hits == st.Lookups {
			t.Errorf("memo budget %d: stats %+v", budget, st)
		}
	}
}

// TestSweepBuildsEachInputOnce: Figure 7's 21 graph jobs need two distinct
// graphs (BFS and PageRank share one, GraphSAGE has its own) and build
// exactly those, at any runner width.
func TestSweepBuildsEachInputOnce(t *testing.T) {
	for _, procs := range []int{1, 8} {
		withProcs(procs, func() {
			before := rmatBuilds.Load()
			if _, err := Fig7(tinyScale()); err != nil {
				t.Fatal(err)
			}
			if n := rmatBuilds.Load() - before; n != 2 {
				t.Errorf("GOMAXPROCS=%d: Fig7 built %d rMat graphs, want 2", procs, n)
			}
		})
	}
}

func heapAfterGC() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFigureReleasesInputs: what a figure builds dies with it. After Fig7
// returns and one GC, the heap is back where it was — no graph left in a
// process-wide cache, no memo of compressed pages (megabytes, while the
// figure ran) still reachable from anywhere, no region's worth of page
// buffers parked in a sync.Pool's victim cache (which survives exactly one
// GC, and is where per-window drained arenas used to sit), no encoder kept
// by a codec singleton. One GC, not two, is the point.
func TestFigureReleasesInputs(t *testing.T) {
	s := tinyScale()
	const slack = 64 << 10
	var memo *ztier.StoreMemo
	withStoreMemo(t, func() *ztier.StoreMemo { memo = ztier.NewStoreMemo(storeMemoBudget); return memo }, func() {
		run := func() {
			if _, err := Fig7(s); err != nil {
				t.Fatal(err)
			}
			if held := memo.Stats().Bytes; held < 16*slack {
				t.Errorf("the figure's memo held %d bytes; too little for its release to show", held)
			}
			memo = nil // the test's own reference
		}
		run() // one-time initialisation (lazy tables, the runtime's own pools)
		for i := 0; i < 20; i++ {
			before := heapAfterGC()
			run()
			if grew := heapAfterGC() - before; grew > slack {
				t.Errorf("repetition %d: heap grew by %d bytes across a figure, want <= %d", i, grew, slack)
			}
		}
	})
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

	// Every waiter on one slot reads the same outcome.
	in := new(inputs)
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
