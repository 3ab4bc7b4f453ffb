package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tierscape/internal/stats"
)

func graphDigest(g *Graph) string {
	h := sha256.New()
	var b [8]byte
	for _, o := range g.offsets {
		binary.LittleEndian.PutUint64(b[:], uint64(o))
		h.Write(b[:])
	}
	for _, e := range g.edges {
		binary.LittleEndian.PutUint32(b[:4], uint32(e))
		h.Write(b[:4])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRMatGolden pins NewRMat's output bit for bit: SHA-256 over
// offsets‖edges, recorded from the float-compare-and-branch generator
// before the integer kernel replaced it. Every graph workload's access
// stream, and so every BFS/PageRank/GraphSAGE row of every figure, is a
// function of these bytes. It holds at every GOMAXPROCS: 1 runs the one
// worker on the caller, 3 splits the edges into chunks that do not divide
// them, 8 gives the 2^15-vertex graphs workers of 2^15 edges.
func TestRMatGolden(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, tc := range rmatGolden {
				if got := graphDigest(NewRMat(tc.n, tc.degree, tc.seed)); got != tc.want {
					t.Errorf("NewRMat(%d, %d, %#x) = %s, want %s", tc.n, tc.degree, tc.seed, got, tc.want)
				}
			}
		})
	}
}

var rmatGolden = []struct {
	n      int64
	degree int
	seed   uint64
	want   string
}{
	{1 << 10, 8, 0x1, "d221267f9421e97b0b67d100734925c50363993d5b2dbd0fbece451fbcf7da88"},
	{1 << 10, 8, 0x2a, "b3b1ecd552c96065e275f4be45a911aee529300c321472e1dda9471eb01ddc4b"},
	{1 << 10, 8, 0xdeadbeefcafe, "c93f70e51b07f274cf1bb917a5ecfc784597bd62ae5f9f551cd08301113aa5d9"},
	{1 << 15, 8, 0x1, "b1cbb5603ce20628fdc20b5bb9b6d2e8cfff9063f15a80046caabcbb90a24154"},
	{1 << 15, 8, 0x2a, "33551dd8e465b256e849ea5a5e94673985ad2726aa98889f699d172dd85a7f18"},
	{1 << 15, 8, 0xdeadbeefcafe, "64078f8eadc7fcc82ce8021ce7fa4f3dca07e519e848e8f67b0f09f117a0b74a"},
	{1 << 17, 8, 0x1, "ba9145d35ec382bcf546d6b10615f42e352015b26a5d52c99f20b3901fe4db48"},
	{1 << 17, 8, 0x2a, "722d10860297833fa9582101de1973f25f53b7091a6cdee8f618b35b4e7388c2"},
	{1 << 17, 8, 0xdeadbeefcafe, "401952a6b423d5648bd5f2e9877074bf4709f5e229bc392d44414f7eb0154758"},
	// Rounded-up, single-vertex (no levels, no draws) and tiny graphs.
	{1000, 3, 7, "feb76b375355214e404d7691e92b95f94733c04c157f96742bcb51014bb2e33b"},
	{1, 4, 9, "bd7cdcc82d46856db3e580548999dfba0d8bd38e0edbb797188de335d933c8b3"},
	{3, 16, 11, "483c9aaedb7cd6b2f4522bc7627d450266324ac0329ae592708af0e40a5b8c1b"},
}

// TestRMatSplitMatchesSerial: at every GOMAXPROCS the split generator
// builds the graph the serial one (rmat_serial_test.go) builds, whole —
// CSR and page layout — on shapes beside the golden ones: rounded-up
// vertex counts, a graph of exactly one worker's minimum chunk and one of
// two, and odd degrees, so chunk edges fall everywhere in a row.
func TestRMatSplitMatchesSerial(t *testing.T) {
	shapes := []struct {
		n      int64
		degree int
	}{{1 << 10, 8}, {1 << 14, 8}, {1 << 15, 3}, {3000, 8}, {3000, 5}, {1 << 14, 1}, {1 << 14, 2}, {5000, 7}}
	for _, sh := range shapes {
		for _, seed := range []uint64{3, 0x5eed, 0xfeedface} {
			want := newRMatSerial(sh.n, sh.degree, seed)
			for _, procs := range []int{1, 2, 3, 8} {
				prev := runtime.GOMAXPROCS(procs)
				got := NewRMat(sh.n, sh.degree, seed)
				runtime.GOMAXPROCS(prev)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("NewRMat(%d, %d, %#x) at GOMAXPROCS %d differs from the serial generator's graph", sh.n, sh.degree, seed, procs)
				}
			}
		}
	}
}

// TestRMatConcurrentBuilds builds one graph on four goroutines at once
// (run with -race: the workers of the four builds share only the kernel's
// table, which they read) and checks every copy against the golden hash.
func TestRMatConcurrentBuilds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	tc := rmatGolden[4] // 2^15 vertices: several workers each
	digests := make([]string, 4)
	var wg sync.WaitGroup
	for i := range digests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			digests[i] = graphDigest(NewRMat(tc.n, tc.degree, tc.seed))
		}()
	}
	wg.Wait()
	for i, d := range digests {
		if d != tc.want {
			t.Errorf("build %d: %s, want %s", i, d, tc.want)
		}
	}
}

// TestRMatBuildFailure: a build that cannot be made panics on the caller —
// where experiments.buildRMat's recover turns it into the job's error —
// and a panic on any worker reaches the caller only after every worker has
// returned, the lowest worker's first, with no goroutine left running.
func TestRMatBuildFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, dims := range []struct {
		n      int64
		degree int
	}{{1 << 62, 8}, {1<<31 + 1, 1}, {1 << 31, 1 << 40}, {1 << 10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRMat(%d, %d) did not panic", dims.n, dims.degree)
				}
			}()
			NewRMat(dims.n, dims.degree, 1)
		}()
	}

	// Worker 1 panics while the caller's worker 0 and worker 2 are still
	// running; worker 3 panics after it.
	var returned atomic.Int32
	first := make(chan struct{})
	func() {
		defer func() {
			if r := recover(); r != "worker 1" {
				t.Errorf("recovered %v, want worker 1's panic", r)
			}
		}()
		runWorkers(4, func(w int) {
			defer returned.Add(1)
			if w == 1 {
				defer close(first)
				panic("worker 1")
			}
			<-first
			if w == 3 {
				panic("worker 3")
			}
		})
	}()
	if n := returned.Load(); n != 4 {
		t.Errorf("%d of 4 workers had returned when the panic reached the caller", n)
	}
	// The workers' goroutines exit just after they signal the join.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines running, %d before the builds", n, before)
	}
}

// TestRMatThresholdExact checks the claim the kernel rests on, draw by
// draw: comparing the 53-bit integer against the scaled threshold decides
// exactly as comparing Float64() against the probability, including at
// the two integers either side of each threshold.
func TestRMatThresholdExact(t *testing.T) {
	for _, p := range []float64{rmatA, rmatAB, rmatABC} {
		k := rmatThreshold(p)
		if float64(k)/(1<<53) != p {
			t.Fatalf("threshold %v does not scale to an integer: %d", p, k)
		}
		for _, x := range []uint64{0, k - 1, k, k + 1, 1<<53 - 1} {
			if (float64(x)/(1<<53) < p) != (x < k) {
				t.Errorf("p=%v k=%d: float and integer compare disagree", p, x)
			}
		}
		a, b := stats.NewRNG(99), stats.NewRNG(99)
		for i := 0; i < 200000; i++ {
			if (a.Float64() < p) != (b.Uint64()>>11 < k) {
				t.Fatalf("p=%v: draw %d decided differently", p, i)
			}
		}
	}
}

// TestRMatHighHalfGuard: deciding a quadrant on the draw's top 12 bits,
// or on its high word, is deciding it on Uint64()>>11 — through the kernel
// NewRMat runs. The table is checked over all 4096 prefixes: undecided
// exactly on the three thresholds' T>>41, and elsewhere the quadrant of
// both the smallest and the largest k under the prefix, so (reaching a
// threshold being monotone in k) of every k between. The compares behind
// it are driven with a table that decides nothing, against draws forced
// onto a threshold's high word by building the threshold around the draw
// — its low 21 bits at zero (the high-word compare alone would call the
// draw short of it), at the draw's own, one past them and all ones — so
// the answer is right only if the whole draw was taken; and either way the
// generator must end where Uint64 leaves it.
func TestRMatHighHalfGuard(t *testing.T) {
	base := [3]uint64{rmatThreshold(rmatA), rmatThreshold(rmatAB), rmatThreshold(rmatABC)}
	reached := func(k uint64, th [3]uint64) (q uint64) {
		for _, t := range th {
			if k >= t {
				q++
			}
		}
		return q
	}
	undecided := 0
	for p, q := range rmatStd.quad {
		lo, hi := uint64(p)<<41, uint64(p+1)<<41-1
		if q == rmatUndecided {
			undecided++
			if lo>>41 != base[0]>>41 && lo>>41 != base[1]>>41 && lo>>41 != base[2]>>41 {
				t.Errorf("prefix %d is undecided, no threshold falls on it", p)
			}
			continue
		}
		if uint64(q) != reached(lo, base) || uint64(q) != reached(hi, base) {
			t.Errorf("prefix %d: quadrant %d, its draws reach %d to %d thresholds", p, q, reached(lo, base), reached(hi, base))
		}
	}
	if undecided != 3 {
		t.Errorf("%d undecided prefixes, want one per threshold", undecided)
	}

	blind := rmatStd
	for p := range blind.quad {
		blind.quad[p] = rmatUndecided
	}
	rng := stats.NewRNG(5)
	forced := 0
	for trial := 0; trial < 20000; trial++ {
		rng.Uint32() // an odd number of steps between trials: both parities of the stream
		peek := *rng
		draw := peek.Uint64()
		k, low := draw>>11, draw>>11&(1<<21-1)
		for which := 0; which < 3; which++ {
			for _, l := range []uint64{0, low, low + 1, 1<<21 - 1} {
				th := base
				th[which] = draw>>32<<21 | l&(1<<21-1)
				if th[which] == 0 {
					continue // a threshold is at least 1
				}
				for i, x := range th { // makeRMatCuts' compares, without its table
					blind.t[i], blind.hi[i] = x-1, x>>21
				}
				got := *rng
				u, v := blind.edge(&got, 1)
				if q := u<<1 | v; q != reached(k, th) {
					t.Fatalf("draw %#x against threshold %d = %#x: quadrant %d, Uint64()>>11 gives %d", draw, which, th[which], q, reached(k, th))
				}
				if got != peek {
					t.Fatalf("draw %#x: the generator is not where Uint64 leaves it", draw)
				}
				forced++
			}
		}
	}
	// And unforced: whole edges against the figure's thresholds.
	a, b := stats.NewRNG(6), stats.NewRNG(6)
	for e := 0; e < 50000; e++ {
		u, v := rmatStd.edge(a, 17)
		for l := 0; l < 17; l++ {
			if q, want := (u>>l&1)<<1|v>>l&1, reached(b.Uint64()>>11, base); q != want {
				t.Fatalf("edge %d level %d: quadrant %d, want %d", e, l, q, want)
			}
		}
	}
	if *a != *b {
		t.Fatal("after 50000 edges the generators differ")
	}
	if forced < 200000 {
		t.Fatalf("%d forced draws checked", forced)
	}
}

// collect runs n ops of wl and returns the concatenated access stream.
func collect(wl Workload, n int) []Access {
	var out, buf []Access
	for i := 0; i < n; i++ {
		buf = wl.NextOp(buf[:0])
		out = append(out, buf...)
	}
	return out
}

// TestSharedGraphConcurrent steps BFS, PageRank and GraphSAGE over ONE
// graph from three goroutines (run with -race: the graph must be
// read-only to all of them) and checks each produced the stream it
// produces alone on a graph of its own.
func TestSharedGraphConcurrent(t *testing.T) {
	const n, degree, seed, ops = 1 << 12, 8, 7, 3000
	shared := NewRMat(n, degree, seed)
	kernels := []struct {
		name   string
		shared Workload
		own    Workload
	}{
		{"BFS", NewBFSOn(shared, seed), NewBFS(n, degree, seed)},
		{"PageRank", NewPageRankOn(shared), NewPageRank(n, degree, seed)},
		{"GraphSAGE", NewGraphSAGEOn(shared, seed), NewGraphSAGEOn(NewRMat(n, degree, seed), seed)},
	}
	got := make([][]Access, len(kernels))
	var wg sync.WaitGroup
	for i := range kernels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = collect(kernels[i].shared, ops)
		}(i)
	}
	wg.Wait()
	for i, k := range kernels {
		if want := collect(k.own, ops); !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s over the shared graph diverged from %s over its own", k.name, k.name)
		}
	}
}

// TestGraphSAGESizing: the tests' NewGraphSAGE (export_test.go) is
// GraphSAGEOn over the graph its page budget implies, which is how the
// product builds one — what lets a sweep key the graph and share it.
func TestGraphSAGESizing(t *testing.T) {
	const pages, seed = 3 * 512, 5
	a := NewGraphSAGE(pages, seed)
	b := NewGraphSAGEOn(NewRMat(GraphSAGEVertices(pages), GraphSAGEDegree, seed), seed)
	if a.NumPages() != b.NumPages() {
		t.Fatalf("NumPages %d vs %d", a.NumPages(), b.NumPages())
	}
	if !reflect.DeepEqual(collect(a, 500), collect(b, 500)) {
		t.Fatal("access streams differ")
	}
}

// BenchmarkNewRMat builds the small-scale figure graph: 2^17 vertices,
// 2^20 edges, 17 draws an edge — on one worker (GOMAXPROCS 1: the per-level
// kernel and the counting sort alone) and on every core -cpu gives it (the
// split on top; GOMAXPROCS(0) leaves the setting as it is).
func BenchmarkNewRMat(b *testing.B) {
	for _, bc := range []struct {
		name  string
		procs int
	}{{"one_worker", 1}, {"all_cores", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(bc.procs))
			for i := 0; i < b.N; i++ {
				NewRMat(1<<17, 8, uint64(i))
			}
		})
	}
}
