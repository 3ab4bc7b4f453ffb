package stats

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sampler produces indices in [0, N) according to some access distribution.
// Workload drivers use Samplers to pick which key/page to touch next.
type Sampler interface {
	// Next returns the next sampled index in [0, N()).
	Next() int64
	// N returns the size of the sampled universe.
	N() int64
}

// Zipf samples from a Zipfian distribution over [0, n) with exponent theta,
// matching the generator used by YCSB ("workloadc" uses zipfian request
// distribution). Rank 0 is the most popular item. An optional shifting
// hotspot rotates the popularity ranking over time, reproducing the
// continuously shifting access pattern the paper observes for Memcached
// with YCSB (§8.2.2, Figure 9d).
type Zipf struct {
	rng   *RNG
	n     int64
	alpha float64
	zetan float64
	eta   float64
	rank1 float64 // 1 + 0.5^theta: u·zetan below this draws rank 1

	// powK != 0: alpha is the integer powK to within what powTol covers,
	// and tailRank raises to it by squaring (see there). Chosen by MakeZipf
	// from theta and n alone.
	powK   uint
	powTol float64

	// shift support
	offset      int64
	shiftEvery  int64 // samples between hotspot rotations; 0 = static
	shiftAmount int64 // ranks to rotate by on each shift
	count       int64
	nextShift   int64 // the count at which the hotspot next rotates; 0 = never
	scramble    bool
}

// MakeZipf returns a Zipfian sampler over [0, n) with exponent theta
// (YCSB default is 0.99), by value, for a sampler that lives for one call.
// If scramble is true, ranks are hashed onto the key space (YCSB's
// "scrambled zipfian") so popular items are spread out.
//
// theta must lie in [0, 1]; anything else (NaN included) panics, as a
// non-positive n does. theta = 1 is the formula's singularity (alpha = +Inf,
// eta = 0: every tail draw clamps to n-1) and is accepted only because
// corpus.fillDickens' bytes depend on it until ROADMAP item 1's re-baseline.
func MakeZipf(rng *RNG, n int64, theta float64, scramble bool) Zipf {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	if !(theta >= 0 && theta <= 1) {
		panic("stats: Zipf with theta outside [0, 1]")
	}
	z := Zipf{rng: rng, n: n, scramble: scramble}
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zetaStatic(2, theta)/z.zetan)
	z.rank1 = 1 + math.Pow(0.5, theta)

	// alpha = k + r. The tail's base b lies in [1-eta, 1], so dropping the
	// factor b^r costs at most c = |r·ln(1-eta)| relative, and b^k is at
	// least (1-eta)^k = e^(-k·l), a normal float64 while k·l < 700. Every
	// comparison is false for a NaN or infinite operand (theta = 1; n = 2,
	// where eta is 0/0), which leaves powK = 0.
	k := math.Round(z.alpha)
	l := -math.Log(1 - z.eta)
	c := math.Abs((z.alpha - k) * l)
	if k >= 2 && k <= 1024 && z.eta > 0 && z.eta < 1 && c < 1e-10 && k*l < 700 {
		z.powK = uint(k)
		z.powTol = 4 * (c + (k+8)*0x1p-52)
	}
	return z
}

// WithRNG returns a copy of z that draws from rng. A caller that needs a
// fresh sampler per call (a page fill) keeps one template and rebinds it,
// instead of paying MakeZipf's zeta(n, theta) each time: n Pows, spread
// over every core, and n additions on the caller.
func (z Zipf) WithRNG(rng *RNG) Zipf {
	z.rng = rng
	return z
}

// NewZipf is MakeZipf on the heap.
func NewZipf(rng *RNG, n int64, theta float64, scramble bool) *Zipf {
	z := MakeZipf(rng, n, theta, scramble)
	return &z
}

// SetShift configures hotspot rotation: every "every" samples the popularity
// ranking rotates by "amount" positions. This models workloads whose hot set
// drifts over time. Issued mid-stream, the rotation stays on the grid of
// all draws made so far: the next one falls on the next multiple of every.
// A rotation by amount is a rotation by amount mod n, negative amounts
// included; every <= 0 turns rotation off.
func (z *Zipf) SetShift(every, amount int64) {
	amount %= z.n
	if amount < 0 {
		amount += z.n // Next's single conditional subtract needs 0 <= offset < n
	}
	z.shiftAmount = amount
	z.shiftEvery, z.nextShift = 0, 0
	if every > 0 {
		z.shiftEvery = every
		z.nextShift = (z.count/every + 1) * every
	}
}

// zetaChunk is the number of consecutive terms a zetaSum worker takes at a
// time.
const zetaChunk = 1 << 12

// zetaStatic is zeta(n, theta) = sum_{i=1..n} 1/i^theta, summed exactly up
// to 2^20 terms and beyond that as the sum to 2^20 plus the integral of
// x^-theta over the rest, which keeps construction O(1)-ish at any n.
func zetaStatic(n int64, theta float64) float64 {
	if n <= 1<<20 {
		return zetaSum(n, theta)
	}
	base := zetaSum(1<<20, theta)
	// integral of x^-theta from 2^20 to n
	if theta == 1 {
		return base + math.Log(float64(n)/float64(1<<20))
	}
	return base + (math.Pow(float64(n), 1-theta)-math.Pow(float64(1<<20), 1-theta))/(1-theta)
}

// zetaSum adds 1/i^theta for i = 1..n left to right. Up to GOMAXPROCS
// workers, the caller among them, evaluate the Pows, each taking the next
// contiguous range of zetaChunk indices until none is left, into a buffer
// of the n terms (8 MB at 2^20, garbage on return) that the caller then
// adds in index order. The additions are a serial loop's, in its order, so
// the sum has the same bits at every GOMAXPROCS; only where each term is
// computed moves. No goroutine starts for a single range or at
// GOMAXPROCS 1, and a worker whose core is busy elsewhere takes fewer
// ranges instead of holding up the sum.
func zetaSum(n int64, theta float64) float64 {
	terms := make([]float64, n) // terms[i-1] = 1/i^theta
	ranges := (n + zetaChunk - 1) / zetaChunk
	var next atomic.Int64
	fill := func() {
		for r := next.Add(1) - 1; r < ranges; r = next.Add(1) - 1 {
			for i := r * zetaChunk; i < min((r+1)*zetaChunk, n); i++ {
				terms[i] = 1 / math.Pow(float64(i+1), theta)
			}
		}
	}
	var wg sync.WaitGroup
	for w := int64(1); w < min(int64(runtime.GOMAXPROCS(0)), ranges); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fill()
		}()
	}
	fill()
	wg.Wait()
	sum := 0.0
	for _, t := range terms {
		sum += t
	}
	return sum
}

// Next returns the next Zipfian-sampled index.
func (z *Zipf) Next() int64 {
	z.count++
	if z.count == z.nextShift {
		z.nextShift += z.shiftEvery
		z.offset = (z.offset + z.shiftAmount) % z.n
	}
	u := z.rng.Float64()
	uz := u * z.zetan
	var rank int64
	switch {
	case uz < 1:
		rank = 0
	case uz < z.rank1:
		rank = 1
	default:
		// b is computed once, so an architecture that fuses the multiply
		// and subtract hands both of tailRank's paths the same base.
		rank, _ = z.tailRank(z.eta*u - z.eta + 1)
	}
	// rank < n and 0 <= offset < n, so one subtraction is the modulo.
	rank += z.offset
	if rank >= z.n {
		rank -= z.n
	}
	if z.scramble {
		rank = int64(fnvHash64(uint64(rank)) % uint64(z.n))
	}
	return rank
}

// tailRank is the YCSB tail formula's rank for base b in [1-eta, 1]:
// min(int64(nf·math.Pow(b, alpha)), n-1) with nf = float64(n), a pure
// function of the sampler's constants and b. fast reports that the
// integer-power path below produced it without calling math.Pow; the rank is
// the same number either way.
//
// Only the integer part of nf·Pow(b, alpha) survives, so when alpha is an
// integer k to within rounding (powK != 0) it is enough to know b^k well:
//
//	y  = b^k, x = b^alpha = y·b^r            (reals; |r·ln b| <= c, MakeZipf)
//	p̂  = b^k by square-and-multiply          = y·(1+d1), |d1| <= (k-1)·u
//	P  = math.Pow(b, alpha)                  = x·(1+d2), |d2| <= (k+2)·u
//	v̂  = fl(nf·p̂), T = fl(nf·P)              one rounding each, <= u
//
// with u = 2^-53. A product of computed powers b^i·b^j carries the factors'
// errors plus one rounding, so any multiplication chain reaches b^k within
// (k-1)·u; every intermediate is >= b^k >= e^-700, so none underflows.
// Go's portable pow is that same chain over Frexp's mantissa (exponents
// kept apart, exactly) times one Exp(r·Log b), which is within an ulp of
// b^r — the three extra u. Together
//
//	|T/v̂ - 1| <= c + (2k+3)·u + O((k·u)^2) < c + (k+8)·2^-52 = powTol/4
//
// so |T - v̂| < powTol·v̂/4. If v̂ is farther than powTol·v̂ from both
// f = ⌊v̂⌋ and f+1, then f < T < f+1 and int64(T) = f. The factor 4 is slack
// for the guard's own two roundings and for a math.Pow a few ulp worse than
// the portable one. v̂ <= nf, and v̂ = nf leaves v̂-f = 0, so a rank that
// passes the guard is already below n: the clamp's cases all fall through.
// FuzzZipfRankExact and TestZipfGuardFires check the equality, at random
// and on draws placed at rank boundaries.
func (z *Zipf) tailRank(b float64) (rank int64, fast bool) {
	nf := float64(z.n)
	if z.powK != 0 {
		p, s := 1.0, b
		for e := z.powK; ; s *= s {
			if e&1 != 0 {
				p *= s
			}
			if e >>= 1; e == 0 {
				break
			}
		}
		v := nf * p
		f := int64(v)
		if frac, tol := v-float64(f), z.powTol*v; frac > tol && 1-frac > tol {
			return f, true
		}
	}
	rank = int64(nf * math.Pow(b, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank, false
}

// N returns the universe size.
func (z *Zipf) N() int64 { return z.n }

func fnvHash64(x uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 0x100000001b3
		x >>= 8
	}
	return h
}

// Gaussian samples indices from a (truncated, wrapped) normal distribution
// centered at mean with standard deviation sigma, matching memtier_benchmark's
// Gaussian access pattern option used by the paper for Memcached/memtier.
type Gaussian struct {
	rng   *RNG
	n     int64
	mean  float64
	sigma float64
}

// NewGaussian returns a Gaussian sampler over [0, n) centered at mean with
// standard deviation sigma.
func NewGaussian(rng *RNG, n int64, mean, sigma float64) *Gaussian {
	if n <= 0 {
		panic("stats: Gaussian with non-positive n")
	}
	return &Gaussian{rng: rng, n: n, mean: mean, sigma: sigma}
}

// Next returns the next Gaussian-sampled index, wrapped into [0, n).
func (g *Gaussian) Next() int64 {
	v := g.mean + g.rng.NormFloat64()*g.sigma
	idx := int64(math.Round(v)) % g.n
	if idx < 0 {
		idx += g.n
	}
	return idx
}

// N returns the universe size.
func (g *Gaussian) N() int64 { return g.n }
