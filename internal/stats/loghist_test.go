package stats

import (
	"math"
	"testing"
)

func TestLogBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   float64
		want int
	}{
		{math.NaN(), 0}, {-5, 0}, {0, 0}, {0.5, 0},
		{1, 1}, {1.9, 1},
		{2, 2}, {3.99, 2},
		{4, 3}, {7, 3},
		{1024, 11},
		{logHistMaxNs - 1, NumLogBuckets - 2},
		{logHistMaxNs, NumLogBuckets - 1},
		{1e30, NumLogBuckets - 1},
	}
	for _, c := range cases {
		if got := logBucketOf(c.ns); got != c.want {
			t.Errorf("logBucketOf(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Every observation lands strictly below its bucket's upper bound.
	for _, ns := range []float64{0, 1, 3, 100, 4096.5, 1e9} {
		b := logBucketOf(ns)
		if ns >= LogBucketUpperNs(b) {
			t.Errorf("ns %v >= upper bound %v of its bucket %d", ns, LogBucketUpperNs(b), b)
		}
	}
}

func TestLogHistQuantile(t *testing.T) {
	var h LogHist
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	// 90 fast (bucket upper 128 ns), 10 slow (bucket upper 4096 ns).
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(3000)
	}
	if got := h.Quantile(0.50); got != 128 {
		t.Errorf("p50 = %v, want 128", got)
	}
	if got := h.Quantile(0.90); got != 128 {
		t.Errorf("p90 = %v, want 128", got)
	}
	if got := h.Quantile(0.95); got != 4096 {
		t.Errorf("p95 = %v, want 4096", got)
	}
	if got := h.Quantile(1.0); got != 4096 {
		t.Errorf("p100 = %v, want 4096", got)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d, want 100", h.Count())
	}
	if want := 90*100.0 + 10*3000.0; h.SumNs() != want {
		t.Errorf("sum = %v, want %v", h.SumNs(), want)
	}
}

// TestLogHistMergeInvariant is the PT-invariance property: splitting a
// stream of observations across shards in any way and merging yields the
// same histogram as observing serially.
func TestLogHistMergeInvariant(t *testing.T) {
	obs := make([]float64, 0, 1000)
	x := uint64(88172645463325252)
	for i := 0; i < 1000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Integer nanoseconds: exactly representable, so the float64 sum
		// is order-independent too (see the LogHist Merge contract).
		obs = append(obs, float64(x%2_000_000))
	}
	var serial LogHist
	for _, v := range obs {
		serial.Observe(v)
	}
	for _, shards := range []int{1, 2, 8} {
		hs := make([]LogHist, shards)
		for i, v := range obs {
			hs[i%shards].Observe(v)
		}
		var merged LogHist
		// Merge in reverse order too — addition is commutative.
		for i := shards - 1; i >= 0; i-- {
			merged.Merge(&hs[i])
		}
		if merged != serial {
			t.Fatalf("merge of %d shards differs from serial histogram", shards)
		}
	}
}

func TestLogHistReset(t *testing.T) {
	var h LogHist
	h.Observe(123)
	h.Reset()
	if h != (LogHist{}) {
		t.Fatal("Reset did not zero the histogram")
	}
}

func TestLogHistForEachBucket(t *testing.T) {
	var h LogHist
	h.Observe(100) // bucket 7
	h.Observe(100)
	h.Observe(3000) // bucket 12
	var got [][2]int64
	h.ForEachBucket(func(b int, c int64) { got = append(got, [2]int64{int64(b), c}) })
	want := [][2]int64{{7, 2}, {12, 1}}
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
}

func BenchmarkLogHistObserve(b *testing.B) {
	var h LogHist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100000) + 0.5)
	}
}

// TestObserveNMatchesObserve pins the premise of the simulator's bulk hit
// counting: for each medium's integer load latency, one ObserveN(c, k)
// leaves the whole histogram, sum bits included, where k Observe(c) calls
// would, up to k = 2^20. For a fractional latency the counts still agree
// but the float sums do not, so only integer latencies may be counted.
func TestObserveNMatchesObserve(t *testing.T) {
	observe := func(c float64, k int64) (one, bulk LogHist) {
		for i := int64(0); i < k; i++ {
			one.Observe(c)
		}
		bulk.ObserveN(c, k)
		return one, bulk
	}
	for _, c := range []float64{33, 170, 350} {
		for _, k := range []int64{1, 2, 3, 1000, 12345, 1 << 20} {
			one, bulk := observe(c, k)
			if one.counts != bulk.counts || one.n != bulk.n ||
				math.Float64bits(one.sum) != math.Float64bits(bulk.sum) {
				t.Errorf("c=%v k=%d: ObserveN left count %d sum %v, %d Observe calls count %d sum %v",
					c, k, bulk.n, bulk.sum, k, one.n, one.sum)
			}
		}
	}
	const c, k = 33.3, 1 << 20
	one, bulk := observe(c, k)
	if one.counts != bulk.counts || one.n != bulk.n {
		t.Fatalf("c=%v k=%d: counts differ", c, k)
	}
	if one.sum == bulk.sum {
		t.Errorf("c=%v k=%d: sums agree (%v); a fractional latency should show the rounding that bulk counting must avoid", c, k, one.sum)
	}
}
