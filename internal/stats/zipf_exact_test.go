package stats

import (
	"fmt"
	"math"
	"testing"
)

// The thetas whose alpha = 1/(1-theta) is an integer to within rounding
// (2, 4, 5, 10, 20, 100), and the universe sizes the goldens use.
var (
	zipfFastThetas = []float64{0.5, 0.75, 0.8, 0.9, 0.95, 0.99}
	zipfExactNs    = []int64{16, 114, 229376, 1 << 24, 1e9 + 7}
)

// powTailRank is the tail formula as it stood before the integer-power
// path, the reference tailRank must equal for every base, with the product
// it truncated.
func powTailRank(z *Zipf, b float64) (rank int64, v float64) {
	v = float64(z.n) * math.Pow(b, z.alpha)
	rank = int64(v)
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank, v
}

// zipfBase is Next's base for the uniform draw k/2^53.
func zipfBase(z *Zipf, k uint64) float64 {
	u := float64(k) / (1 << 53)
	return z.eta*u - z.eta + 1
}

// checkTailRank fails t unless tailRank(b) is the math.Pow rank, and unless
// the guard fell back wherever the bound says it must: a reference value
// within powTol/2 (relative) of an integer cannot be more than powTol from
// one as v̂. It reports whether the fast path answered.
func checkTailRank(t *testing.T, z *Zipf, b float64) bool {
	t.Helper()
	got, fast := z.tailRank(b)
	want, v := powTailRank(z, b)
	if got != want {
		t.Fatalf("n=%d alpha=%v b=%v (%#x): tailRank = %d (fast=%v), math.Pow rank = %d",
			z.n, z.alpha, b, math.Float64bits(b), got, fast, want)
	}
	if fast && math.Abs(v-math.Round(v)) <= z.powTol/2*v {
		t.Fatalf("n=%d alpha=%v b=%v: n·Pow = %v is within the guard of an integer, yet the fast path answered",
			z.n, z.alpha, b, v)
	}
	return fast
}

// boundaryBase solves the base at which the tail formula crosses from rank
// j-1 to rank j, n·b^alpha = j, to within two ulps (Pow's own error plus the
// rounding of 1/alpha), and returns the float64 d ulps above it. ok is false
// outside [1-eta, 1], tailRank's domain.
func boundaryBase(z *Zipf, j int64, d int) (b float64, ok bool) {
	b = math.Pow(float64(j)/float64(z.n), 1/z.alpha)
	b = math.Float64frombits(math.Float64bits(b) + uint64(d))
	return b, b >= 1-z.eta && b <= 1
}

// TestZipfFastPathSelection pins which samplers raise to an integer power
// and which take math.Pow on every draw, so an edit of MakeZipf's condition
// is a reviewed change.
func TestZipfFastPathSelection(t *testing.T) {
	for _, c := range []struct {
		theta float64
		n     int64
		k     uint
	}{
		{0, 229376, 0},   // alpha = 1: nothing to square
		{0.5, 229376, 2}, // alpha = 2 exactly
		{2.0 / 3, 229376, 3},
		{0.7, 229376, 0}, // alpha = 3.33
		{0.75, 229376, 4},
		{0.8, 229376, 5},
		{0.9, 229376, 10},
		{0.95, 229376, 20},
		{0.99, 229376, 100}, // workload.KV, workload.YCSB
		{0.999, 229376, 1000},
		{0.9995, 229376, 0}, // alpha = 2000: beyond the squaring chain's error budget
		{1, 114, 0},         // corpus.fillDickens: alpha = +Inf
		{0.99, 2, 0},        // eta = 0/0
		{0.99, 16, 100},
		{0.99, 1e9 + 7, 100},
		{0.5, 1e9 + 7, 2},
	} {
		z := MakeZipf(nil, c.n, c.theta, false)
		if z.powK != c.k {
			t.Errorf("theta=%v n=%d: powK = %d, want %d (alpha=%v eta=%v)", c.theta, c.n, z.powK, c.k, z.alpha, z.eta)
		}
		if c.k != 0 {
			// c + (k+8)·2^-52, four times over, with c < 1e-10.
			lo := 4 * float64(c.k+8) * 0x1p-52
			if !(z.powTol >= lo && z.powTol < lo+4e-10) {
				t.Errorf("theta=%v n=%d: powTol = %g, want in [%g, %g)", c.theta, c.n, z.powTol, lo, lo+4e-10)
			}
		}
	}
}

// TestZipfDegenerateThetaTakesPow: theta outside [0, 1] is refused, and
// theta = 1 — Dickens' sampler, the formula's singularity — is accepted but
// never answered by the integer-power path.
func TestZipfDegenerateThetaTakesPow(t *testing.T) {
	for _, theta := range []float64{-0.1, 1.0000001, 2, math.Inf(1), math.Inf(-1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeZipf(theta=%v) did not panic", theta)
				}
			}()
			MakeZipf(nil, 100, theta, false)
		}()
	}
	z := NewZipf(NewRNG(7), 114, 1.0, false)
	if z.powK != 0 {
		t.Fatalf("theta=1: powK = %d, want 0", z.powK)
	}
	for k := uint64(0); k < 1<<53; k += 1 << 41 {
		if checkTailRank(t, z, zipfBase(z, k)) {
			t.Fatalf("theta=1: fast path taken at u = %d/2^53", k)
		}
	}
	for i := 0; i < 10000; i++ {
		if v := z.Next(); v < 0 || v >= 114 {
			t.Fatalf("theta=1: draw %d out of range", v)
		}
	}
}

// TestZipfGuardFires checks the guard from both sides, by counting. One
// ulp of b moves n·b^alpha by k to 2k of its own ulps and the guard is more
// than 8(k+8) wide, so bases within eight ulps of a solved rank boundary sit
// inside it or at its edge: every one must get the math.Pow rank, and nearly
// all of them by falling back. Random draws must get it too, and nearly none
// of them by falling back.
func TestZipfGuardFires(t *testing.T) {
	for _, theta := range zipfFastThetas {
		for _, n := range zipfExactNs {
			t.Run(fmt.Sprintf("theta=%v/n=%d", theta, n), func(t *testing.T) {
				z := NewZipf(NewRNG(uint64(n)^math.Float64bits(theta)), n, theta, false)
				if z.powK == 0 {
					t.Fatalf("no fast path selected (alpha=%v eta=%v)", z.alpha, z.eta)
				}

				var placed, fell int
				atBoundary := func(j int64) {
					for d := -8; d <= 8; d++ {
						if b, ok := boundaryBase(z, j, d); ok {
							placed++
							if !checkTailRank(t, z, b) {
								fell++
							}
						}
					}
				}
				// Every boundary below 2048 (the ranks most draws land on),
				// then 4096 more spread geometrically up to n-1.
				j := int64(1)
				for ; j < n && j < 2048; j++ {
					atBoundary(j)
				}
				if j < n {
					step := math.Pow(float64(n-1)/float64(j), 1.0/4096)
					for x := float64(j); x < float64(n); x *= step {
						atBoundary(int64(x))
					}
					atBoundary(n - 1)
				}
				if placed < 50 || float64(fell) < 0.99*float64(placed) {
					t.Errorf("boundary bases: %d of %d fell back to math.Pow, want >= 99%%", fell, placed)
				}

				const random = 1 << 18
				randomFell := 0
				for i := 0; i < random; i++ {
					if !checkTailRank(t, z, zipfBase(z, z.rng.Uint64()>>11)) {
						randomFell++
					}
				}
				if float64(randomFell) > 1e-4*random {
					t.Errorf("random draws: %d of %d fell back to math.Pow, want <= 1e-4", randomFell, random)
				}
				t.Logf("k=%d tol=%.3g: boundary %d/%d fell back, random %d/%d", z.powK, z.powTol, fell, placed, randomFell, random)
			})
		}
	}
}

// zipfFuzzCache keeps the samplers a fuzz worker has built: beyond 2^20
// keys MakeZipf costs 2^20 Pows, the draw under test a few dozen ns.
var zipfFuzzCache = map[[2]uint64]*Zipf{}

func fuzzZipf(theta float64, n int64) *Zipf {
	key := [2]uint64{math.Float64bits(theta), uint64(n)}
	z := zipfFuzzCache[key]
	if z == nil {
		if len(zipfFuzzCache) >= 256 {
			clear(zipfFuzzCache)
		}
		z = NewZipf(nil, n, theta, false)
		zipfFuzzCache[key] = z
	}
	return z
}

// FuzzZipfRankExact: for any theta in [0, 1], any n and any uniform draw,
// tailRank is the math.Pow rank — at the draw's base and at the bases either
// side of the rank boundary above it, where the two could differ if the
// guard were too narrow.
func FuzzZipfRankExact(f *testing.F) {
	for _, theta := range append([]float64{0.7, 1}, zipfFastThetas...) {
		for _, n := range []int64{16, 229376, 1e9 + 7} {
			z := fuzzZipf(theta, n)
			edge := uint64(z.rank1 / z.zetan * (1 << 53)) // the first tail draw, give or take one
			for _, k := range []uint64{0, 1<<53 - 1, edge - 1, edge, edge + 1} {
				f.Add(math.Float64bits(theta), n, k<<11)
			}
		}
	}
	f.Fuzz(func(t *testing.T, thetaBits uint64, n int64, uBits uint64) {
		theta := math.Abs(math.Float64frombits(thetaBits))
		if !(theta <= 1) {
			if theta = math.Mod(theta, 1); theta != theta {
				theta = 0.99
			}
		}
		if n < 0 {
			n = -(n + 1) // MinInt64 -> MaxInt64
		}
		z := fuzzZipf(theta, n%(1<<40)+1)
		if !(z.eta >= 0 && z.eta <= 1) {
			return // n = 2: eta is 0/0 and the tail is never reached
		}
		b := zipfBase(z, uBits>>11)
		checkTailRank(t, z, b)
		if z.powK == 0 {
			return
		}
		rank, _ := powTailRank(z, b)
		for d := -4; d <= 4; d++ {
			if b, ok := boundaryBase(z, rank+1, d); ok {
				checkTailRank(t, z, b)
			}
		}
	})
}

var zipfSink int64

func BenchmarkZipfNext(b *testing.B) {
	for _, c := range []struct {
		name  string
		theta float64
		fast  bool
	}{
		{"theta0.99_fast", 0.99, true},
		{"theta0.7_pow", 0.7, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			z := NewZipf(NewRNG(42), 229376, c.theta, false)
			if (z.powK != 0) != c.fast {
				b.Fatalf("theta=%v: powK = %d", c.theta, z.powK)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				zipfSink += z.Next()
			}
		})
	}
}
