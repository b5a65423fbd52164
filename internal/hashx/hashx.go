// Package hashx provides the hash-function machinery the paper's data
// structures assume: pairwise-independent hash functions (used to
// compress MLSH vectors into short keys, Algorithm 1 and §4.1), seeded
// mixing hashes for fingerprinting arbitrary data (IBLT cell indexing and
// checksums, §2.2), and point hashing.
//
// Pairwise independence is provided exactly, via multiply-add modulo the
// Mersenne prime p = 2^61 − 1: for a uniform (a, b) with a ≠ 0, the map
// x ↦ (a·x + b mod p) is pairwise independent on [p]. The paper's
// analyses (e.g. footnote before Lemma 3.8, §4.1) require nothing
// stronger than pairwise independence from these functions.
package hashx

import (
	"math/bits"

	"repro/internal/rng"
)

// mersenne61 is the Mersenne prime 2^61 − 1 used as the field modulus.
const mersenne61 = (1 << 61) - 1

// mulMod61 returns a·b mod p for a, b <= p = 2^61−1 (every caller's
// operands are field elements, or p itself) using the standard Mersenne
// folding trick on the 128-bit product.
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a·b = hi·2^64 + lo <= p², so hi < 2^58. As 2^61 ≡ 1 (mod p), a·b is
	// congruent to its low 61 bits plus the bits above them, and that sum
	// is below 2p: a·b would have to be p·2^61 + p > p² to reach it.
	sum := (lo & mersenne61) + (lo>>61 | hi<<3)
	if sum >= mersenne61 {
		sum -= mersenne61
	}
	return sum
}

// addMod61 returns a+b mod 2^61−1 for a, b < 2^61−1.
func addMod61(a, b uint64) uint64 {
	s := a + b
	if s >= mersenne61 {
		s -= mersenne61
	}
	return s
}

// Pairwise is an exactly pairwise-independent hash function from 64-bit
// inputs to a configurable number of output bits (at most 61).
type Pairwise struct {
	a, b uint64
	bits uint
}

// NewPairwise draws a pairwise-independent function with the given output
// width from src. outBits must lie in [1, 61].
func NewPairwise(src *rng.Source, outBits uint) Pairwise {
	if outBits < 1 || outBits > 61 {
		panic("hashx: Pairwise output width must be in [1,61]")
	}
	a := src.Uint64n(mersenne61-1) + 1 // a ∈ [1, p−1]
	b := src.Uint64n(mersenne61)       // b ∈ [0, p−1]
	return Pairwise{a: a, b: b, bits: outBits}
}

// Hash maps x to outBits pseudo-random bits. Inputs larger than p are
// first reduced mod p; distinct inputs below p stay distinct before
// hashing, which is all the pairwise analysis needs.
func (h Pairwise) Hash(x uint64) uint64 {
	v := addMod61(mulMod61(h.a, x%mersenne61), h.b)
	// Take the high-order bits: for multiply-add over a prime field any
	// fixed bit window is fine; high bits mix best.
	return v >> (61 - h.bits)
}

// Bits returns the output width of the function.
func (h Pairwise) Bits() uint { return h.bits }

// Mixer is a seeded 64→64-bit finalizer (splitmix64-style). It is not
// pairwise independent; it is the "random oracle"-style hash used for
// IBLT cell indexing and checksums, where the paper's analyses assume
// fully random hashing (standard for IBLT treatments, see [13]).
type Mixer struct {
	seed uint64
}

// NewMixer derives a mixer from src.
func NewMixer(src *rng.Source) Mixer { return Mixer{seed: src.Uint64()} }

// MixerFromSeed builds a mixer with an explicit seed (for tests).
func MixerFromSeed(seed uint64) Mixer { return Mixer{seed: seed} }

// Hash scrambles x.
func (m Mixer) Hash(x uint64) uint64 {
	z := x + m.seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashInto scrambles every element of xs into dst (which must be at
// least as long) and returns dst[:len(xs)]. Batch variant for sketch
// builders that fingerprint whole key blocks into caller-provided
// scratch.
func (m Mixer) HashInto(dst, xs []uint64) []uint64 {
	dst = dst[:len(xs)]
	for i, x := range xs {
		dst[i] = m.Hash(x)
	}
	return dst
}

// HashBytes hashes an arbitrary byte string by absorbing 8-byte lanes.
func (m Mixer) HashBytes(p []byte) uint64 {
	h := m.seed ^ (uint64(len(p)) * 0x9e3779b97f4a7c15)
	for len(p) >= 8 {
		lane := uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
		h = mix64(h ^ lane)
		p = p[8:]
	}
	if len(p) > 0 {
		var lane uint64
		for i, b := range p {
			lane |= uint64(b) << (8 * uint(i))
		}
		h = mix64(h ^ lane ^ 0xff)
	}
	return mix64(h)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	return z ^ (z >> 33)
}

// KeyHasher compresses a vector of LSH values into a fixed-width key,
// the way Algorithm 1 forms key_i(a) = h(g1(a),…,g_s(a)) with h drawn
// from a pairwise-independent class with range {0,1}^Θ(log n).
//
// Exact pairwise independence over variable-length vectors is obtained by
// first collapsing the vector with a vector-polynomial hash over GF(p)
// (whose collision probability on unequal vectors is ≤ len/p, far below
// any failure probability in play) and then applying a Pairwise function.
type KeyHasher struct {
	coeff Pairwise // per-lane multiplier basis
	outer Pairwise
	alpha uint64 // evaluation point of the polynomial hash
}

// NewKeyHasher draws a key hasher with outBits-wide output.
func NewKeyHasher(src *rng.Source, outBits uint) KeyHasher {
	return KeyHasher{
		coeff: NewPairwise(src, 61),
		outer: NewPairwise(src, outBits),
		alpha: src.Uint64n(mersenne61-1) + 1,
	}
}

// Hash compresses the vector vs into a key.
func (k KeyHasher) Hash(vs []uint64) uint64 {
	// Polynomial evaluation: Σ v_i · α^i mod p, with each v_i first
	// scrambled by a fixed pairwise function so structured inputs don't
	// align with the polynomial structure.
	var acc uint64
	pow := uint64(1)
	for _, v := range vs {
		acc = addMod61(acc, mulMod61(k.coeff.Hash(v)|1, pow))
		pow = mulMod61(pow, k.alpha)
	}
	return k.outer.Hash(acc)
}

// AppendPowers appends α^0, …, α^(n−1) to dst: the weights Hash gives
// the positions of an n-value vector.
func (k KeyHasher) AppendPowers(dst []uint64, n int) []uint64 {
	pow := uint64(1)
	for i := 0; i < n; i++ {
		dst = append(dst, pow)
		pow = mulMod61(pow, k.alpha)
	}
	return dst
}

// HashPowers equals Hash(vs) given pows = AppendPowers(nil, len(vs)),
// without re-deriving the powers on every call: one field step per value
// instead of two.
func (k KeyHasher) HashPowers(vs, pows []uint64) uint64 {
	pows = pows[:len(vs)]
	var acc uint64
	for i, v := range vs {
		acc = addMod61(acc, mulMod61(k.coeff.Hash(v)|1, pows[i]))
	}
	return k.outer.Hash(acc)
}

// HashPrefixes compresses every prefix of vs named in ns — which must be
// nondecreasing, each in [0, len(vs)] — into dst (len(dst) >= len(ns)),
// returning dst[:len(ns)]. dst[j] equals Hash(vs[:ns[j]]): the
// polynomial accumulator is carried across the sorted prefixes, so the
// whole family of keys costs one pass over vs instead of one pass per
// prefix. Every EMD point derives one key per resolution level from a
// doubling prefix of its MLSH vector; the protocol itself runs the
// compiled form (PrefixHasher), and this dense form is its reference.
func (k KeyHasher) HashPrefixes(dst []uint64, vs []uint64, ns []int) []uint64 {
	var acc uint64
	pow := uint64(1)
	j := 0
	for i := 0; ; i++ {
		for j < len(ns) && ns[j] == i {
			dst[j] = k.outer.Hash(acc)
			j++
		}
		if i == len(vs) || j == len(ns) {
			break
		}
		acc = addMod61(acc, mulMod61(k.coeff.Hash(vs[i])|1, pow))
		pow = mulMod61(pow, k.alpha)
	}
	return dst[:j]
}

// PrefixHasher is HashPrefixes compiled for vectors whose values at most
// positions are known in advance. The term (c(v_j)|1)·α^j of a fixed
// position does not depend on the point, and field addition commutes, so
// Compile sums the fixed terms of each prefix step into one constant and
// keeps α^j only for the free positions. A point then costs one field
// step per free value instead of one per position, and gets exactly the
// keys HashPrefixes would give its full vector.
type PrefixHasher struct {
	coeff, outer Pairwise
	steps        []prefixStep
	pows         []uint64 // α^j of each free position j, ascending
}

// prefixStep is one compiled prefix: the fixed terms at positions from
// the previous prefix up to this one, and how many free positions lie
// below it.
type prefixStep struct {
	base uint64
	end  int
}

// Compile returns the PrefixHasher for the prefixes ns (nondecreasing,
// each >= 0) of vectors whose position j holds a value known in advance
// wherever constant(j) reports one, and a per-point value elsewhere.
func (k KeyHasher) Compile(ns []int, constant func(j int) (uint64, bool)) PrefixHasher {
	last := 0
	if len(ns) > 0 {
		last = ns[len(ns)-1]
	}
	free := 0
	for j := 0; j < last; j++ {
		if _, ok := constant(j); !ok {
			free++
		}
	}
	h := PrefixHasher{
		coeff: k.coeff,
		outer: k.outer,
		steps: make([]prefixStep, len(ns)),
		pows:  make([]uint64, 0, free),
	}
	pow := uint64(1)
	j := 0
	for i, n := range ns {
		var base uint64
		for ; j < n; j++ {
			if v, ok := constant(j); ok {
				base = addMod61(base, mulMod61(k.coeff.Hash(v)|1, pow))
			} else {
				h.pows = append(h.pows, pow)
			}
			pow = mulMod61(pow, k.alpha)
		}
		h.steps[i] = prefixStep{base: base, end: len(h.pows)}
	}
	return h
}

// HashPrefixes writes one key per compiled prefix into dst (at least that
// long) for the vector whose free positions hold vals, in order, and
// returns the filled part of dst. The accumulator is carried across the
// prefixes, as in KeyHasher.HashPrefixes.
func (h *PrefixHasher) HashPrefixes(dst, vals []uint64) []uint64 {
	var acc uint64
	j := 0
	for i, st := range h.steps {
		acc = addMod61(acc, st.base)
		for ; j < st.end; j++ {
			acc = addMod61(acc, mulMod61(h.coeff.Hash(vals[j])|1, h.pows[j]))
		}
		dst[i] = h.outer.Hash(acc)
	}
	return dst[:len(h.steps)]
}
