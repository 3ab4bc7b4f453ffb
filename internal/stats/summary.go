package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Summary accumulates scalar observations and reports exact order
// statistics. It is a counted multiset — each distinct value's bits and how
// often it was added, in an open-addressing table — so Count, Sum, Mean,
// Min, Max and the nearest-rank Percentile are the float64s a sorted slice
// of every sample would give (matching how memtier/YCSB report p95/p99.9),
// while memory follows the number of distinct values, not of samples. What
// the simulator feeds it takes few values: an op's latency is a sum of
// tier access constants and fault latencies, and a fault's latency is a
// function of the tier and the compressed length (measured per run: 2
// distinct values on the ledger's kv_steady, 1–170 on daemon_multi's
// tenants, 5 606 on spectrum_churn over 53 k faults). All-distinct input is
// the worst case: 16 B a slot at up to 3/4 load, against the slice's 8 B a
// sample.
type Summary struct {
	slots    []valueCount // power-of-two table, linear probing; n == 0 marks a free slot
	distinct int
	count    int
	sum      float64
	// order lists the occupied slots by ascending value. Counting another
	// sample of a known value leaves it valid; a new value or a rehash
	// empties it and the next Percentile rebuilds it.
	order []int32
}

// valueCount is one distinct observation: the value's bits (so +0 and -0,
// which compare equal, and NaN, which does not equal itself, are each just
// a key) and its multiplicity.
type valueCount struct {
	bits uint64
	n    int64
}

const summaryMinSlots = 16

// NewSummary returns an empty summary. The table is built by the first Add.
func NewSummary() *Summary { return &Summary{} }

// slot returns the index of bits' slot: the one holding it, or the free
// slot where it belongs. The table must be non-empty.
func (s *Summary) slot(bits uint64) int {
	mask := len(s.slots) - 1
	// Fibonacci hashing: latencies differ mostly in their high mantissa
	// and exponent bits, which the multiply folds into the index.
	i := int((bits*0x9e3779b97f4a7c15)>>32) & mask
	for s.slots[i].n != 0 && s.slots[i].bits != bits {
		i = (i + 1) & mask
	}
	return i
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	s.count++
	s.sum += v
	bits := math.Float64bits(v)
	if len(s.slots) != 0 {
		if sl := &s.slots[s.slot(bits)]; sl.n != 0 {
			sl.n++
			return
		}
	}
	s.insert(bits)
}

// insert adds a value seen for the first time, growing the table to keep
// its load under 3/4.
func (s *Summary) insert(bits uint64) {
	if 4*(s.distinct+1) > 3*len(s.slots) {
		old := s.slots
		s.slots = make([]valueCount, max(summaryMinSlots, 2*len(old)))
		for _, sl := range old {
			if sl.n != 0 {
				s.slots[s.slot(sl.bits)] = sl
			}
		}
	}
	s.slots[s.slot(bits)] = valueCount{bits: bits, n: 1}
	s.distinct++
	s.order = s.order[:0]
}

// Count returns the number of observations.
func (s *Summary) Count() int { return s.count }

// Sum returns the sum of observations, accumulated in arrival order.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 if empty.
func (s *Summary) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// sortOrder rebuilds order if a new value arrived since it was last built.
// Values sort as sort.Float64s sorts them (NaN first); equal values with
// different bits (±0) fall in bit order so the result is deterministic.
func (s *Summary) sortOrder() {
	if len(s.order) == s.distinct {
		return
	}
	for i, sl := range s.slots {
		if sl.n != 0 {
			s.order = append(s.order, int32(i))
		}
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		x, y := s.slots[a].bits, s.slots[b].bits
		if c := cmp.Compare(math.Float64frombits(x), math.Float64frombits(y)); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
}

// Percentile returns the p-th percentile (p in [0,100]) using nearest-rank,
// or 0 if empty.
func (s *Summary) Percentile(p float64) float64 {
	if s.count == 0 {
		return 0
	}
	s.sortOrder()
	rank := 0
	switch {
	case p >= 100:
		rank = s.count - 1
	case p > 0:
		rank = max(0, int(math.Ceil(p/100*float64(s.count)))-1)
	}
	// The value at index rank of the sorted samples: the first distinct
	// value whose cumulative count passes it.
	cum := int64(0)
	for _, i := range s.order {
		cum += s.slots[i].n
		if cum > int64(rank) {
			return math.Float64frombits(s.slots[i].bits)
		}
	}
	panic("stats: Summary counts do not add up to Count")
}

// Max returns the maximum observation, or 0 if empty.
func (s *Summary) Max() float64 { return s.Percentile(100) }

// Min returns the minimum observation, or 0 if empty.
func (s *Summary) Min() float64 { return s.Percentile(0) }

// Reset discards all observations and keeps the table's capacity.
func (s *Summary) Reset() {
	clear(s.slots)
	s.order = s.order[:0]
	s.distinct = 0
	s.count = 0
	s.sum = 0
}

// PercentileOf returns the p-th percentile (nearest-rank, p in [0,100]) of
// the given values without mutating the input slice.
func PercentileOf(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	cp := make([]float64, len(vals))
	copy(cp, vals)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	return cp[rank]
}
