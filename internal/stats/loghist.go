package stats

import "math/bits"

// LogHist is a log₂-bucketed latency histogram with fixed, universal
// bucket boundaries: bucket i counts observations v (in nanoseconds) with
// v ∈ [2^(i-1), 2^i), i.e. each bucket's upper bound is 2^i ns. Bucket 0
// absorbs everything below 1 ns (and non-finite or negative inputs); the
// last bucket is the overflow for v ≥ 2^(NumLogBuckets−2) ns (~18 min).
//
// Because the boundaries never depend on the data, merging two histograms
// is element-wise addition — associative and commutative — so per-shard
// histograms merged in any order produce identical counts. That is the
// property the simulator's determinism contract needs: per-tier histograms
// built across push-thread workers merge to the same bytes at every
// thread count.
//
// Observe allocates nothing and reads no clocks; the zero value is an
// empty, ready-to-use histogram.
type LogHist struct {
	counts [NumLogBuckets]int64
	n      int64
	sum    float64
}

// NumLogBuckets is the fixed bucket count: indices 0..40 are the regular
// log₂ buckets (upper bounds 2^0 .. 2^40 ns ≈ 1100 s), index 41 is the
// overflow bucket.
const NumLogBuckets = 42

// logHistMaxNs is the lower bound of the overflow bucket.
const logHistMaxNs = float64(uint64(1) << (NumLogBuckets - 2))

// logBucketOf maps an observation to its bucket index.
func logBucketOf(ns float64) int {
	if !(ns >= 1) { // also catches NaN and negatives
		return 0
	}
	if ns >= logHistMaxNs {
		return NumLogBuckets - 1
	}
	return bits.Len64(uint64(ns))
}

// LogBucketUpperNs returns bucket i's upper latency bound in
// nanoseconds: 2^i for the regular buckets. The overflow bucket has no
// finite bound; 2^(NumLogBuckets−1) is returned as a sentinel so
// quantiles stay JSON-encodable.
func LogBucketUpperNs(i int) float64 {
	if i < 0 {
		return 0
	}
	if i >= NumLogBuckets {
		i = NumLogBuckets - 1
	}
	return float64(uint64(1) << uint(i))
}

// Observe records one latency in nanoseconds.
func (h *LogHist) Observe(ns float64) {
	h.counts[logBucketOf(ns)]++
	h.n++
	h.sum += ns
}

// ObserveN records k observations of one latency, ns, in one call. The
// counts are what k Observe calls leave. The sum gains ns·k, one rounding
// instead of k; that is bit-equal to k sequential adds when ns and the
// running sum are integers and every partial sum stays below 2^53, where
// float64 integer arithmetic is exact. For fractional ns the two sums can
// differ in their last bits.
func (h *LogHist) ObserveN(ns float64, k int64) {
	h.counts[logBucketOf(ns)] += k
	h.n += k
	h.sum += ns * float64(k)
}

// Merge adds other's counts into h. Bucket counts and the observation
// count merge by integer addition — exactly order-independent. The
// float64 sum is order-independent only when every observation is
// exactly representable (e.g. integer nanoseconds); callers that need a
// byte-reproducible sum over fractional observations must merge in a
// fixed order (the simulator does: one serial observer per window,
// merged tier-ascending).
func (h *LogHist) Merge(other *LogHist) {
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.n += other.n
	h.sum += other.sum
}

// Reset returns h to the empty state.
func (h *LogHist) Reset() { *h = LogHist{} }

// Count returns the number of observations.
func (h *LogHist) Count() int64 { return h.n }

// SumNs returns the sum of all observations in nanoseconds.
func (h *LogHist) SumNs() float64 { return h.sum }

// Quantile returns the nearest-rank q-quantile (0 < q ≤ 1) as the upper
// bound of the bucket holding that rank — a conservative, deterministic
// estimate quantized to the fixed boundaries. Returns 0 for an empty
// histogram.
func (h *LogHist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return LogBucketUpperNs(i)
		}
	}
	return LogBucketUpperNs(NumLogBuckets - 1)
}

// ForEachBucket calls fn for every non-empty bucket in ascending index
// order — the iteration sinks use to build sparse encodings.
func (h *LogHist) ForEachBucket(fn func(bucket int, count int64)) {
	for i, c := range h.counts {
		if c != 0 {
			fn(i, c)
		}
	}
}
