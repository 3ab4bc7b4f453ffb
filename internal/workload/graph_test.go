package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"

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
// function of these bytes.
func TestRMatGolden(t *testing.T) {
	for _, tc := range []struct {
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
	} {
		if got := graphDigest(NewRMat(tc.n, tc.degree, tc.seed)); got != tc.want {
			t.Errorf("NewRMat(%d, %d, %#x) = %s, want %s", tc.n, tc.degree, tc.seed, got, tc.want)
		}
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

// TestRMatHighHalfGuard: deciding a quadrant on the draw's high word is
// deciding it on Uint64()>>11. Draws are forced onto a threshold's high
// word by building the threshold around the draw — its low 21 bits at
// zero (the high-word compare alone would call the draw short of it), at
// the draw's own, one past them and all ones — so the answer is right only
// if the whole draw was taken; and either way the generator must end where
// Uint64 leaves it.
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
				cuts := makeRMatCuts(th)
				got := *rng
				u, v := cuts.edge(&got, 1)
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
	cuts := makeRMatCuts(base)
	a, b := stats.NewRNG(6), stats.NewRNG(6)
	for e := 0; e < 50000; e++ {
		u, v := cuts.edge(a, 17)
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

// TestGraphSAGESizing: NewGraphSAGE is GraphSAGEOn over the graph its
// page budget implies — what lets a sweep key the graph and share it.
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
// 2^20 edges, 17 draws an edge.
func BenchmarkNewRMat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewRMat(1<<17, 8, uint64(i))
	}
}
