package stats

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	s := NewSummary()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.Count() != 100 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 50.5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if got := s.Percentile(50); got != 50 {
		t.Fatalf("P50 = %v", got)
	}
	if got := s.Percentile(95); got != 95 {
		t.Fatalf("P95 = %v", got)
	}
	if got := s.Max(); got != 100 {
		t.Fatalf("Max = %v", got)
	}
	if got := s.Min(); got != 1 {
		t.Fatalf("Min = %v", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := NewSummary()
	if s.Mean() != 0 || s.Percentile(99) != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryAddAfterPercentile(t *testing.T) {
	s := NewSummary()
	s.Add(3)
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(2)
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("Min after re-add = %v", got)
	}
	if got := s.Percentile(100); got != 3 {
		t.Fatalf("Max after re-add = %v", got)
	}
}

func TestSummaryReset(t *testing.T) {
	s := NewSummary()
	s.Add(5)
	s.Reset()
	if s.Count() != 0 || s.Sum() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		s := NewSummary()
		for i := 0; i < 100; i++ {
			s.Add(r.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileOfDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = PercentileOf(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("PercentileOf mutated its input")
	}
}

func TestPercentileOfNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if got := PercentileOf(xs, 25); got != 10 {
		t.Fatalf("P25 = %v, want 10", got)
	}
	if got := PercentileOf(xs, 75); got != 30 {
		t.Fatalf("P75 = %v, want 30", got)
	}
}

// sliceSummary is the reference the counted Summary must equal: every
// sample kept, sorted on demand, nearest-rank by index — the
// implementation Summary replaced.
type sliceSummary struct {
	vals []float64
	sum  float64
}

func (r *sliceSummary) add(v float64) {
	r.vals = append(r.vals, v)
	r.sum += v
}

func (r *sliceSummary) percentile(p float64) float64 {
	if len(r.vals) == 0 {
		return 0
	}
	sort.Float64s(r.vals)
	if p <= 0 {
		return r.vals[0]
	}
	if p >= 100 {
		return r.vals[len(r.vals)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(r.vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	return r.vals[rank]
}

// checkSummaryExact feeds n values chosen by data to both summaries,
// comparing every statistic along the way so Add and Percentile
// interleave. Each byte picks a value: from a pool of eight (signed zeros
// among them) when distinctBits is 0, else from 2^distinctBits values. It
// returns the summary it filled.
func checkSummaryExact(t *testing.T, data []byte, distinctBits uint8, checkEvery int) *Summary {
	t.Helper()
	pool := [8]float64{80, 2080, 2160, 0, math.Copysign(0, -1), 1e-3, -7.5, 5e6}
	s, ref := NewSummary(), &sliceSummary{}
	compare := func(i int) {
		t.Helper()
		if s.Count() != len(ref.vals) {
			t.Fatalf("after %d adds: Count = %d, want %d", i, s.Count(), len(ref.vals))
		}
		mean := 0.0
		if len(ref.vals) > 0 {
			mean = ref.sum / float64(len(ref.vals))
		}
		// Bitwise: the sum is accumulated in arrival order in both.
		if math.Float64bits(s.Sum()) != math.Float64bits(ref.sum) || math.Float64bits(s.Mean()) != math.Float64bits(mean) {
			t.Fatalf("after %d adds: Sum, Mean = %v, %v, want %v, %v", i, s.Sum(), s.Mean(), ref.sum, mean)
		}
		// By ==: which of -0 and +0 an unstable sort leaves at an index
		// was never defined.
		if s.Min() != ref.percentile(0) || s.Max() != ref.percentile(100) {
			t.Fatalf("after %d adds: Min, Max = %v, %v, want %v, %v", i, s.Min(), s.Max(), ref.percentile(0), ref.percentile(100))
		}
		for _, p := range []float64{0, 50, 95, 99, 99.9, 100} {
			if got, want := s.Percentile(p), ref.percentile(p); got != want {
				t.Fatalf("after %d adds: Percentile(%v) = %v, want %v", i, p, got, want)
			}
		}
	}
	compare(0)
	state := uint64(len(data))
	for i, b := range data {
		var v float64
		if distinctBits == 0 {
			v = pool[b%8]
		} else {
			state = state*6364136223846793005 + uint64(b) + 1
			v = float64((state>>33)&(1<<distinctBits-1)) * 0.25
		}
		s.Add(v)
		ref.add(v)
		if (i+1)%checkEvery == 0 {
			compare(i + 1)
		}
	}
	compare(len(data))
	return s
}

// FuzzSummaryExact: the counted Summary equals the sorted-slice reference
// on every statistic, for duplicate-heavy and all-but-distinct inputs.
func FuzzSummaryExact(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{3, 4, 3, 4, 0, 0, 1}, uint8(0))
	f.Add(bytes.Repeat([]byte{1, 2, 250, 7}, 64), uint8(0))
	f.Add(bytes.Repeat([]byte{9, 8, 7, 6, 5}, 200), uint8(12))
	f.Fuzz(func(t *testing.T, data []byte, distinctBits uint8) {
		checkSummaryExact(t, data, distinctBits%20, 1+len(data)/8)
	})
}

// TestSummaryExactAcrossGrowth runs the fuzz property at sizes the fuzzer's
// seeds do not reach: thousands of distinct values, so the table grows well
// past three doublings with Percentile calls in between, and a two-valued
// stream like kv_steady's.
func TestSummaryExactAcrossGrowth(t *testing.T) {
	r := NewRNG(7)
	data := make([]byte, 6000)
	for i := range data {
		data[i] = byte(r.Uint32())
	}
	s := checkSummaryExact(t, data, 19, 500) // ≈ all distinct
	if got := len(s.slots); got < summaryMinSlots<<3 {
		t.Fatalf("%d values left a table of %d slots: growth was not exercised", len(data), got)
	}
	checkSummaryExact(t, data, 6, 500) // 64 values
	checkSummaryExact(t, data, 0, 500) // the pool, ±0 included
}

// TestSummaryAddAllocsPerRun is the property OpLat relies on: a
// million samples of a few values allocate nothing per sample.
func TestSummaryAddAllocsPerRun(t *testing.T) {
	s := NewSummary()
	vals := [3]float64{2080, 2160, 4383}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 1000; k++ {
			s.Add(vals[i%3])
			i++
		}
		s.Percentile(99.9)
	}); n != 0 {
		t.Fatalf("Add of known values allocates: %v allocs per 1000 adds", n)
	}
	if len(s.slots) != summaryMinSlots {
		t.Fatalf("3 distinct values grew the table to %d slots", len(s.slots))
	}
}
