// Package rng provides deterministic pseudo-random number generation and
// the "public coins" abstraction the paper's protocols assume.
//
// All protocols in the paper (§2) are stated in the public-coin model:
// Alice and Bob share random bits at no communication cost. In practice —
// and the paper notes this explicitly — the parties approximate public
// coins by sharing a small seed. Package rng makes that concrete: a
// Source is a splittable, deterministic generator seeded from 64 bits, so
// two parties constructing a Source from the same seed draw identical
// hash functions in identical order without any coordination.
//
// The generator is xoshiro256**, seeded via splitmix64, which is the
// recommended seeding procedure for the xoshiro family. It is not
// cryptographically secure; the paper's adversary model is oblivious, so
// statistical quality is what matters.
package rng

import "math/bits"

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used to expand a 64-bit seed into the 256-bit xoshiro state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256** generator. It implements enough
// of the math/rand.Source surface for our needs while remaining fully
// reproducible across parties that share a seed.
//
// The zero value is not usable; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded deterministically from seed. It inlines,
// so a Source that does not outlive its caller stays on the stack.
func New(seed uint64) *Source {
	r := seeded(seed)
	return &r
}

// seeded returns the Source New points to.
func seeded(seed uint64) Source {
	var r Source
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro requires a not-all-zero state; splitmix64 guarantees this
	// with overwhelming probability, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split returns a new Source whose stream is independent (in the
// statistical sense) of the parent's future outputs. Both parties calling
// Split in the same order obtain the same children, which is how the
// protocols derive per-level and per-structure hash functions from one
// shared seed.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *Source) Bool() bool { return r.Uint64()&1 == 1 }

// NormFloat64 returns a standard normal variate via the Marsaglia polar
// method. The p-stable LSH family for ℓ2 (Lemma 2.5) requires Gaussian
// projection vectors, so the generator must be available to both parties
// deterministically; math/rand's global state would not be reproducible
// across parties.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		// Box-Muller polar transform; return one variate, discard the
		// twin to keep the consumption pattern simple and deterministic.
		return u * sqrtNeg2LogOver(s)
	}
}

// sqrtNeg2LogOver computes sqrt(-2·ln(s)/s) without importing math in the
// hot path signature; split out for testability.
func sqrtNeg2LogOver(s float64) float64 {
	return sqrt(-2 * ln(s) / s)
}

// Perm returns a uniform permutation of [0, n) via Fisher–Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the provided swap function.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
