package hashx

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMulMod61AgainstBigIntFree(t *testing.T) {
	// Cross-check against the naive double-and-add computation.
	naive := func(a, b uint64) uint64 {
		a %= mersenne61
		var acc uint64
		for b > 0 {
			if b&1 == 1 {
				acc = addMod61(acc, a)
			}
			a = addMod61(a, a)
			b >>= 1
		}
		return acc
	}
	src := rng.New(1)
	for i := 0; i < 2000; i++ {
		a := src.Uint64() % mersenne61
		b := src.Uint64() % mersenne61
		if got, want := mulMod61(a, b), naive(a, b); got != want {
			t.Fatalf("mulMod61(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
	// Boundary values.
	edges := []uint64{0, 1, 2, mersenne61 - 1, mersenne61 - 2, 1 << 60}
	for _, a := range edges {
		for _, b := range edges {
			if got, want := mulMod61(a, b), naive(a, b); got != want {
				t.Fatalf("mulMod61(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestPairwiseRange(t *testing.T) {
	src := rng.New(2)
	for _, w := range []uint{1, 8, 20, 32, 61} {
		h := NewPairwise(src, w)
		if h.Bits() != w {
			t.Fatalf("Bits() = %d, want %d", h.Bits(), w)
		}
		for i := uint64(0); i < 1000; i++ {
			if v := h.Hash(i); w < 64 && v>>w != 0 {
				t.Fatalf("width %d output %d overflows", w, v)
			}
		}
	}
}

func TestPairwiseWidthPanics(t *testing.T) {
	for _, w := range []uint{0, 62, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d did not panic", w)
				}
			}()
			NewPairwise(rng.New(1), w)
		}()
	}
}

// TestPairwiseCollisionRate verifies the defining property statistically:
// over a random draw of the function, Pr[h(x)=h(y)] ≈ 2^-bits for x ≠ y.
func TestPairwiseCollisionRate(t *testing.T) {
	src := rng.New(3)
	const outBits = 10
	const draws = 20000
	collisions := 0
	for i := 0; i < draws; i++ {
		h := NewPairwise(src, outBits)
		if h.Hash(12345) == h.Hash(67890) {
			collisions++
		}
	}
	want := float64(draws) / (1 << outBits)
	if math.Abs(float64(collisions)-want) > 6*math.Sqrt(want) {
		t.Errorf("collisions = %d, want ~%.1f", collisions, want)
	}
}

// TestPairwiseUniformPerInput verifies single-value uniformity over the
// function family (the other half of pairwise independence).
func TestPairwiseUniformPerInput(t *testing.T) {
	src := rng.New(4)
	const outBits = 4
	counts := make([]int, 1<<outBits)
	const draws = 64000
	for i := 0; i < draws; i++ {
		h := NewPairwise(src, outBits)
		counts[h.Hash(99)]++
	}
	want := float64(draws) / (1 << outBits)
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("value %d: count %d, want ~%.0f", v, c, want)
		}
	}
}

func TestMixerDeterminismAndSensitivity(t *testing.T) {
	m := MixerFromSeed(7)
	if m.Hash(1) != m.Hash(1) {
		t.Fatal("Mixer not deterministic")
	}
	if m.Hash(1) == m.Hash(2) {
		t.Fatal("Mixer collides on adjacent inputs")
	}
	m2 := MixerFromSeed(8)
	if m.Hash(1) == m2.Hash(1) {
		t.Fatal("different seeds, same output")
	}
}

func TestMixerAvalanche(t *testing.T) {
	m := MixerFromSeed(11)
	// Flipping one input bit should flip ~32 output bits.
	var totalFlips, trials int
	for x := uint64(0); x < 200; x++ {
		base := m.Hash(x)
		for b := uint(0); b < 64; b += 7 {
			diff := base ^ m.Hash(x^(1<<b))
			totalFlips += popcount(diff)
			trials++
		}
	}
	avg := float64(totalFlips) / float64(trials)
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average = %.2f bits, want ~32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func TestHashBytes(t *testing.T) {
	m := MixerFromSeed(13)
	if m.HashBytes([]byte("hello")) == m.HashBytes([]byte("hellp")) {
		t.Error("adjacent strings collide")
	}
	if m.HashBytes(nil) != m.HashBytes([]byte{}) {
		t.Error("nil and empty differ")
	}
	if m.HashBytes([]byte{0}) == m.HashBytes([]byte{0, 0}) {
		t.Error("length not absorbed")
	}
	long := make([]byte, 100)
	long2 := make([]byte, 100)
	long2[99] = 1
	if m.HashBytes(long) == m.HashBytes(long2) {
		t.Error("tail byte ignored")
	}
}

func TestKeyHasherDistinctVectors(t *testing.T) {
	src := rng.New(19)
	k := NewKeyHasher(src, 40)
	seen := map[uint64][]uint64{}
	collisions := 0
	const trials = 50000
	vsrc := rng.New(23)
	for i := 0; i < trials; i++ {
		v := []uint64{vsrc.Uint64n(1000), vsrc.Uint64n(1000), vsrc.Uint64n(1000)}
		h := k.Hash(v)
		if prev, ok := seen[h]; ok && !equalVec(prev, v) {
			collisions++
		}
		seen[h] = v
	}
	// With 40-bit keys and 5·10^4 draws, expected collisions ≈ 10^9/2^41 ≈ 0.
	if collisions > 2 {
		t.Errorf("%d key collisions among %d vectors", collisions, trials)
	}
}

func TestKeyHasherEqualVectorsEqualKeys(t *testing.T) {
	k := NewKeyHasher(rng.New(29), 32)
	prop := func(a, b, c uint64) bool {
		v := []uint64{a, b, c}
		w := []uint64{a, b, c}
		return k.Hash(v) == k.Hash(w)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyHasherPrefixSensitivity(t *testing.T) {
	k := NewKeyHasher(rng.New(31), 48)
	if k.Hash([]uint64{1, 2}) == k.Hash([]uint64{1, 2, 0}) {
		t.Error("appending a zero lane did not change the key")
	}
	if k.Hash([]uint64{}) == k.Hash([]uint64{0}) {
		t.Error("empty vs single-zero collision")
	}
}

// TestPrefixHasherMatchesHashPrefixes: a compiled hasher fed only the
// free values returns exactly HashPrefixes of the full vector, for any
// mix of fixed and free positions — none free, all free, repeated and
// empty prefixes, free positions past the last prefix.
func TestPrefixHasherMatchesHashPrefixes(t *testing.T) {
	src := rng.New(37)
	for trial := 0; trial < 200; trial++ {
		k := NewKeyHasher(src, 40)
		n := int(src.Uint64n(64))
		full := make([]uint64, n)
		var free []int
		share := src.Uint64n(3) // 0: none free, 1: some, 2: all
		for j := range full {
			full[j] = src.Uint64n(4)
			if share == 2 || share == 1 && src.Uint64n(4) == 0 {
				free = append(free, j)
			}
		}
		ns := make([]int, 1+src.Uint64n(8))
		for i := range ns {
			ns[i] = int(src.Uint64n(uint64(n) + 1))
		}
		sort.Ints(ns)
		isFree := make([]bool, n)
		vals := make([]uint64, len(free))
		for i, j := range free {
			isFree[j] = true
			vals[i] = full[j]
		}
		h := k.Compile(ns, func(j int) (uint64, bool) { return full[j], !isFree[j] })
		want := k.HashPrefixes(make([]uint64, len(ns)), full, ns)
		got := h.HashPrefixes(make([]uint64, len(ns)), vals)
		if !equalVec(got, want) {
			t.Fatalf("trial %d (n=%d, free %v, ns %v): compiled %v, dense %v", trial, n, free, ns, got, want)
		}
	}
}

func equalVec(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkPairwiseHash(b *testing.B) {
	h := NewPairwise(rng.New(1), 32)
	for i := 0; i < b.N; i++ {
		_ = h.Hash(uint64(i))
	}
}

func BenchmarkKeyHasher16(b *testing.B) {
	k := NewKeyHasher(rng.New(1), 40)
	v := make([]uint64, 16)
	for i := range v {
		v[i] = uint64(i * 77)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Hash(v)
	}
}
