package stats

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("bucket %d count %d outside [8000,12000]", i, c)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGUniformity(t *testing.T) {
	// Chi-squared-ish sanity check over 64 buckets.
	r := NewRNG(123)
	const buckets, samples = 64, 640000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Uint32()%buckets]++
	}
	expected := float64(samples) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 dof; mean 63, std ~11.2. Allow generous bound.
	if chi2 > 120 {
		t.Fatalf("chi2 = %v, too high for uniform output", chi2)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(55)
	n := 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(10)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams matched %d/100 times", same)
	}
}

// TestRNGAdvance: Advance(k) lands where k Uint32 steps land, jumps add
// up, and a jump of 2^64 - 1 is one step short of the whole period — the
// properties a generator split across workers rests on (workload.NewRMat
// starts each worker at its chunk's first draw).
func TestRNGAdvance(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0x724d6174, 0xdeadbeefcafe, 1<<64 - 1} {
		start := MakeRNG(seed)
		stepped := start
		done := uint64(0)
		for _, k := range []uint64{0, 1, 2, 3, 63, 64, 65, 1000, 1<<20 + 1} {
			for ; done < k; done++ {
				stepped.Uint32()
			}
			jumped := start
			jumped.Advance(k)
			if jumped != stepped {
				t.Fatalf("seed %#x: Advance(%d) = %+v, %d steps give %+v", seed, k, jumped, k, stepped)
			}
		}
		for _, ab := range [][2]uint64{{0, 5}, {7, 0}, {3, 1000}, {1 << 40, 1<<63 + 17}, {1<<64 - 1, 2}} {
			twice, once := start, start
			twice.Advance(ab[0])
			twice.Advance(ab[1])
			once.Advance(ab[0] + ab[1])
			if twice != once {
				t.Errorf("seed %#x: Advance(%d) then Advance(%d) != Advance(%d)", seed, ab[0], ab[1], ab[0]+ab[1])
			}
		}
		back := start
		back.Advance(1<<64 - 1)
		back.Uint32()
		if back != start {
			t.Errorf("seed %#x: Advance(2^64-1) and one step do not return to the start", seed)
		}
	}
}

// FuzzRNGAdvance: from any seed, Advance(a) then k steps is Advance(a+k),
// and a Uint64 draw after it is the stepped generator's.
func FuzzRNGAdvance(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint16(0))
	f.Add(uint64(42), uint64(1<<20+1), uint16(63))
	f.Add(uint64(0x724d6174), uint64(1<<64-1), uint16(1))
	f.Fuzz(func(t *testing.T, seed, a uint64, k uint16) {
		stepped, jumped := MakeRNG(seed), MakeRNG(seed)
		stepped.Advance(a)
		for i := uint16(0); i < k; i++ {
			stepped.Uint32()
		}
		jumped.Advance(a + uint64(k))
		if stepped != jumped {
			t.Fatalf("seed %#x: Advance(%d) + %d steps = %+v, Advance(%d) = %+v", seed, a, k, stepped, a+uint64(k), jumped)
		}
		if s, j := stepped.Uint64(), jumped.Uint64(); s != j {
			t.Fatalf("seed %#x: next draw %#x, want %#x", seed, j, s)
		}
	})
}

// TestRNGUint64TwoStep: Uint64 — and Uint64Hi, which computes only its
// high half — advances the generator two steps at once; it must stay
// exactly two Uint32 draws, high half first, wherever it falls among the
// other draws — every sampler, key hash and page byte
// downstream is a function of this sequence. The reference generator makes
// each 64-bit draw, and everything built on one, from single steps.
func TestRNGUint64TwoStep(t *testing.T) {
	got, ref := NewRNG(0x5eed), NewRNG(0x5eed)
	ref64 := func() uint64 { return uint64(ref.Uint32())<<32 | uint64(ref.Uint32()) }
	for i := 0; i < 1<<20; i++ {
		var g, w uint64
		switch i % 8 {
		case 0, 1, 2:
			g, w = got.Uint64(), ref64()
		case 3:
			g, w = uint64(got.Uint32()), uint64(ref.Uint32())
		case 4:
			n := i%1000 + 1
			g, w = uint64(got.Intn(n)), ref64()%uint64(n)
		case 5:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(float64(ref64()>>11)/(1<<53))
		case 6:
			if i%(8*512) == 6 { // now and then, carry on from a derived stream
				got, ref = got.Split(), NewRNG(ref64())
			}
			g, w = got.Uint64(), ref64()
		case 7: // the high half alone, the generator past the whole draw
			hi, next := got.Uint64Hi()
			*got = next
			g, w = uint64(hi), ref64()>>32
		}
		if g != w {
			t.Fatalf("draw %d (kind %d): got %#x, want %#x", i, i%8, g, w)
		}
	}
	if *got != *ref {
		t.Fatalf("final state %+v, want %+v", *got, *ref)
	}
}
