// Package stats provides deterministic random number generation,
// workload-oriented samplers (Zipfian, Gaussian, uniform), and streaming
// summary statistics (histograms, percentiles, geometric means) used
// throughout the TierScape simulator.
//
// Everything in this package is deterministic given a seed so that
// experiments and tests are exactly reproducible.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator based on the
// PCG-XSH-RR 64/32 scheme. It is not safe for concurrent use; each goroutine
// should own its own RNG (use Split to derive independent streams).
type RNG struct {
	state uint64
	inc   uint64
}

const (
	pcgMult = 6364136223846793005
	// pcgMult2 is pcgMult² mod 2^64: the multiplier of two steps taken
	// as one.
	pcgMult2 = pcgMult * pcgMult & (1<<64 - 1)
)

// MakeRNG returns a generator seeded with seed, by value: a caller that
// needs a generator for the length of one call (hashing a key, filling a
// page) keeps it on its stack. Two RNGs with the same seed produce
// identical streams.
func MakeRNG(seed uint64) RNG {
	r := RNG{inc: (seed << 1) | 1}
	r.state = seed + 0x9e3779b97f4a7c15
	r.Uint32()
	r.state += seed
	r.Uint32()
	return r
}

// NewRNG is MakeRNG on the heap, for a generator that outlives its
// creator.
func NewRNG(seed uint64) *RNG {
	r := MakeRNG(seed)
	return &r
}

// Split derives a new, statistically independent generator from r.
// The derived stream is deterministic given r's current state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// pcgOutput is PCG-XSH-RR's output function of a state.
func pcgOutput(state uint64) uint32 {
	xorshifted := uint32(((state >> 18) ^ state) >> 27)
	return bits.RotateLeft32(xorshifted, -int(state>>59))
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	return pcgOutput(old)
}

// Uint64 returns the next 64 uniformly distributed bits: two Uint32 draws,
// the first in the high half. It advances the state two steps at once —
// (s·M + inc)·M + inc = s·M² + inc·(M+1) — so neither the next draw nor the
// second output waits on the first step's multiply.
func (r *RNG) Uint64() uint64 {
	s0 := r.state
	s1 := s0*pcgMult + r.inc
	r.state = s0*pcgMult2 + r.inc*(pcgMult+1)
	return uint64(pcgOutput(s0))<<32 | uint64(pcgOutput(s1))
}

// Uint64Hi returns the high half of r's next Uint64 draw and the
// generator past that draw: the state advances exactly as Uint64 advances
// it, and the second output — the draw's low 32 bits — is never computed.
// For a caller that can usually decide on the high half alone; when it
// cannot, r is still the generator before the draw and r.Uint64() is the
// same draw in full. Value in, value out: a loop that threads its
// generator through Uint64Hi keeps the state in registers, which a call on
// a pointer receiver, even inlined, does not.
func (r RNG) Uint64Hi() (hi uint32, next RNG) {
	next = RNG{state: r.state*pcgMult2 + r.inc*(pcgMult+1), inc: r.inc}
	return pcgOutput(r.state), next
}

// Advance moves r delta Uint32 steps ahead (a Uint64 draw is two) in
// O(log delta): the step s ↦ s·M + inc is affine, so delta of them compose
// to s ↦ s·M^delta + inc·(M^(delta-1) + … + 1), built by squaring the step
// the way an exponent is. All arithmetic is mod 2^64, as the step's is,
// so Advance(2^64 - 1) is one step back. Lets a worker start where the
// serial stream would have been after delta steps.
func (r *RNG) Advance(delta uint64) {
	accMult, accPlus := uint64(1), uint64(0)
	mult, plus := uint64(pcgMult), r.inc
	for ; delta > 0; delta >>= 1 {
		if delta&1 != 0 {
			accMult *= mult
			accPlus = accPlus*mult + plus
		}
		plus *= mult + 1
		mult *= mult
	}
	r.state = r.state*accMult + accPlus
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Marsaglia polar method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
