package stats

import (
	"math"
	"testing"
)

func TestZipfRange(t *testing.T) {
	z := NewZipf(NewRNG(1), 1000, 0.99, false)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// With theta=0.99 the top 10% of ranks should receive a large majority
	// of accesses.
	z := NewZipf(NewRNG(2), 1000, 0.99, false)
	top := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if z.Next() < 100 {
			top++
		}
	}
	frac := float64(top) / n
	if frac < 0.5 {
		t.Fatalf("top-10%% ranks got only %.2f of accesses; want > 0.5", frac)
	}
}

func TestZipfRankZeroMostPopular(t *testing.T) {
	z := NewZipf(NewRNG(3), 100, 0.99, false)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("rank 0 (%d) not more popular than rank 50 (%d)", counts[0], counts[50])
	}
}

func TestZipfShiftMovesHotspot(t *testing.T) {
	z := NewZipf(NewRNG(4), 1000, 0.99, false)
	z.SetShift(10000, 100)
	// First 10k samples: hot set near 0.
	early := make([]int, 1000)
	for i := 0; i < 9999; i++ {
		early[z.Next()]++
	}
	// Run forward several shifts.
	for i := 0; i < 50000; i++ {
		z.Next()
	}
	late := make([]int, 1000)
	for i := 0; i < 9999; i++ {
		late[z.Next()]++
	}
	if argmax(late) == argmax(early) {
		t.Fatalf("hotspot did not move: early max at %d, late max at %d", argmax(early), argmax(late))
	}
}

// TestZipfShiftNegativeAmount: a rotation by -7 is a rotation by n-7 (and by
// -7-n), draw for draw, and never leaves [0, n) — it used to keep Go's
// signed remainder as the offset and return negative ranks.
func TestZipfShiftNegativeAmount(t *testing.T) {
	const n = 100
	neg := NewZipf(NewRNG(12), n, 0.99, false)
	neg.SetShift(1, -7)
	pos := NewZipf(NewRNG(12), n, 0.99, false)
	pos.SetShift(1, n-7)
	wrapped := NewZipf(NewRNG(12), n, 0.99, false)
	wrapped.SetShift(1, -7-n)
	for i := 0; i < 20000; i++ {
		v := neg.Next()
		if v < 0 || v >= n {
			t.Fatalf("draw %d with amount -7: %d out of range", i, v)
		}
		if p, w := pos.Next(), wrapped.Next(); v != p || v != w {
			t.Fatalf("draw %d: amount -7 drew %d, amount n-7 drew %d, amount -7-n drew %d", i, v, p, w)
		}
	}

	// every <= 0 is a static ranking, whatever it was before.
	static := NewZipf(NewRNG(13), n, 0.99, false)
	off := NewZipf(NewRNG(13), n, 0.99, false)
	off.SetShift(3, 11)
	off.SetShift(-3, 11)
	for i := 0; i < 1000; i++ {
		if s, o := static.Next(), off.Next(); s != o {
			t.Fatalf("draw %d: static drew %d, every=-3 drew %d", i, s, o)
		}
	}
}

func argmax(xs []int) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func TestZipfScrambleSpreads(t *testing.T) {
	z := NewZipf(NewRNG(5), 1000, 0.99, true)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	// With scrambling, the most popular key should NOT be rank 0 typically,
	// and low ranks should not dominate contiguously: check that the top-100
	// most-accessed indices are not all < 200.
	hot := 0
	for i := 0; i < 200; i++ {
		if counts[i] > 300 {
			hot++
		}
	}
	if hot > 50 {
		t.Fatalf("scrambled zipf still clusters hot keys at low indices (%d)", hot)
	}
}

func TestGaussianCentered(t *testing.T) {
	g := NewGaussian(NewRNG(6), 10000, 5000, 100)
	sum := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(g.Next())
	}
	mean := sum / n
	if math.Abs(mean-5000) > 20 {
		t.Fatalf("mean = %v, want ~5000", mean)
	}
}

func TestGaussianWraps(t *testing.T) {
	g := NewGaussian(NewRNG(7), 100, 0, 30)
	for i := 0; i < 10000; i++ {
		v := g.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Gaussian out of range: %d", v)
		}
	}
}

func TestSamplersImplementInterface(t *testing.T) {
	r := NewRNG(1)
	for _, s := range []Sampler{
		NewZipf(r, 10, 0.99, false),
		NewGaussian(r, 10, 5, 1),
	} {
		if s.N() != 10 {
			t.Errorf("N() = %d, want 10", s.N())
		}
	}
}
