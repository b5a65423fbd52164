package main

// Seeded input generators. Every point set, noise vector, far point,
// churn batch and protocol seed the benchmark feeds the system comes
// from here, drawn from math/rand/v2 PCG streams keyed by the -seed
// argument — never from the repository's own internal/workload or
// internal/rng, so an optimisation there cannot change the load.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// point is one vector of integer coordinates; pointSet a multiset.
type (
	point    = []int32
	pointSet = [][]int32
)

// space describes ([delta]^dim, norm) in the benchmark's own terms.
type space struct {
	dim   int
	delta int32
	norm  string // "hamming" or "l2"
}

// PCG stream ids, one per purpose, so adding a generator never shifts
// the draws of another.
const (
	streamPoints uint64 = iota + 1
	streamNoise
	streamSeeds
	streamChurn
	streamShuffle
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// inputHash folds every generated input into one FNV-1a value that is
// printed with the results, so two runs can prove they saw the same
// load.
type inputHash struct{ h hash.Hash64 }

func newInputHash() *inputHash { return &inputHash{fnv.New64a()} }

func (ih *inputHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	ih.h.Write(b[:])
}

func (ih *inputHash) points(ps pointSet) {
	ih.u64(uint64(len(ps)))
	var b [4]byte
	for _, p := range ps {
		for _, c := range p {
			binary.LittleEndian.PutUint32(b[:], uint32(c))
			ih.h.Write(b[:])
		}
	}
}

func (ih *inputHash) sum() uint64 { return ih.h.Sum64() }

func uniformPoint(r *rand.Rand, sp space) point {
	p := make(point, sp.dim)
	for i := range p {
		p[i] = int32(r.IntN(int(sp.delta) + 1))
	}
	return p
}

func uniformPoints(r *rand.Rand, sp space, n int) pointSet {
	ps := make(pointSet, n)
	for i := range ps {
		ps[i] = uniformPoint(r, sp)
	}
	return ps
}

func clonePoint(p point) point { return append(point(nil), p...) }

// perturbHamming flips exactly `flips` distinct coordinates of a binary
// point.
func perturbHamming(r *rand.Rand, p point, flips int) point {
	q := clonePoint(p)
	for _, j := range r.Perm(len(p))[:flips] {
		q[j] ^= 1
	}
	return q
}

// perturbL2 moves p along a uniform random direction by a length drawn
// uniformly from [0, dist], truncating toward zero and clamping into the
// space, so the displacement's l2 norm never exceeds dist.
func perturbL2(r *rand.Rand, p point, dist float64, delta int32) point {
	dir := make([]float64, len(p))
	var norm float64
	for i := range dir {
		dir[i] = r.NormFloat64()
		norm += dir[i] * dir[i]
	}
	norm = math.Sqrt(norm)
	q := clonePoint(p)
	if norm == 0 {
		return q
	}
	scale := r.Float64() * dist / norm
	for i := range q {
		c := q[i] + int32(math.Trunc(dir[i]*scale))
		q[i] = min(max(c, 0), delta)
	}
	return q
}

func shuffle(r *rand.Rand, ps pointSet) {
	r.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
}

// emdInstance is one planted instance of the EMD model: Bob holds n
// uniform points, Alice noisy copies of n-k of them plus k fresh ones.
type emdInstance struct{ sa, sb pointSet }

func genEMDInstances(seed uint64, sp space, count, n, k int, noise float64, ih *inputHash) []emdInstance {
	pts, nz, sh := newRand(seed, streamPoints), newRand(seed, streamNoise), newRand(seed, streamShuffle)
	out := make([]emdInstance, count)
	for i := range out {
		sb := uniformPoints(pts, sp, n)
		sa := make(pointSet, n)
		for j := range sa {
			if j < n-k {
				sa[j] = perturbL2(nz, sb[j], noise, sp.delta)
			} else {
				sa[j] = uniformPoint(pts, sp)
			}
		}
		shuffle(sh, sa)
		shuffle(sh, sb)
		ih.points(sa)
		ih.points(sb)
		out[i] = emdInstance{sa, sb}
	}
	return out
}

// gapInstance is one planted instance of the gap model on the Hamming
// cube: Bob holds n uniform points; Alice holds copies within r1 of all
// but kFar of them, and kFar points at distance >= r2 from every point
// of Bob's.
type gapInstance struct {
	sa, sb pointSet
	far    pointSet
}

func genGapInstance(seed uint64, sp space, n, kFar, r1, r2 int, ih *inputHash) gapInstance {
	pts, nz, sh := newRand(seed, streamPoints), newRand(seed, streamNoise), newRand(seed, streamShuffle)
	sb := uniformPoints(pts, sp, n)
	sa := make(pointSet, 0, n)
	for _, p := range sb[:n-kFar] {
		sa = append(sa, perturbHamming(nz, p, r1))
	}
	var far pointSet
	for len(far) < kFar {
		p := uniformPoint(pts, sp)
		if minHamming(sb, p, r2) >= r2 {
			far = append(far, p)
		}
	}
	sa = append(sa, far...)
	shuffle(sh, sa)
	shuffle(sh, sb)
	ih.points(sa)
	ih.points(sb)
	return gapInstance{sa: sa, sb: sb, far: far}
}

// hammingUpTo counts differing coordinates of two points of the Hamming
// cube (coordinates 0 or 1), giving up once the count reaches limit; the
// result is exact below limit and at least limit otherwise. It adds the
// XOR of each coordinate pair instead of branching on it — on random
// points a branch would be mispredicted every other coordinate — and
// looks at the limit once per block.
func hammingUpTo(a, b point, limit int) int {
	const block = 32
	d := 0
	for len(a) > 0 && d < limit {
		n := min(block, len(a))
		var x int32
		for i, c := range a[:n] {
			x += c ^ b[i]
		}
		d += int(x)
		a, b = a[n:], b[n:]
	}
	return d
}

// minHamming returns min over ps of the distance to p, with every
// distance capped at limit.
func minHamming(ps pointSet, p point, limit int) int {
	best := limit
	for _, q := range ps {
		if d := hammingUpTo(p, q, best); d < best {
			best = d
		}
	}
	return best
}

func genSeeds(seed uint64, n int, ih *inputHash) []uint64 {
	r := newRand(seed, streamSeeds)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64() | 1 // never zero: a zero seed means "default" to some layers
		ih.u64(out[i])
	}
	return out
}

// replaceBatch swaps one point of a live set for a re-observation of the
// same object.
type replaceBatch struct{ remove, add point }

// genReplaceBatches draws `count` replace batches over base. Each add is
// a fresh noisy copy (flips coordinates away from the base point, not
// from the previous copy), so the churned set always stays within flips
// per point of base — the returning client's view.
func genReplaceBatches(seed uint64, base pointSet, count, flips int, ih *inputHash) []replaceBatch {
	r := newRand(seed, streamChurn)
	cur := append(pointSet(nil), base...)
	out := make([]replaceBatch, count)
	for i := range out {
		j := r.IntN(len(cur))
		fresh := perturbHamming(r, base[j], flips)
		out[i] = replaceBatch{remove: cur[j], add: fresh}
		cur[j] = fresh
		ih.points(pointSet{out[i].remove, out[i].add})
	}
	return out
}

// meshInputs is everything a mesh workload feeds its nodes: the base
// content of every set (identical on all nodes, so the mesh starts
// converged) and, per cycle and touched set, the fresh points planted on
// the cycle's origin node.
type meshInputs struct {
	base  []pointSet   // [set]
	fresh [][]pointSet // [cycle][touch]
}

func genMeshInputs(seed uint64, sp space, sets, basePoints, cycles, touches, adds int, ih *inputHash) meshInputs {
	pts, ch := newRand(seed, streamPoints), newRand(seed, streamChurn)
	in := meshInputs{base: make([]pointSet, sets), fresh: make([][]pointSet, cycles)}
	for s := range in.base {
		in.base[s] = uniformPoints(pts, sp, basePoints)
		ih.points(in.base[s])
	}
	for c := range in.fresh {
		in.fresh[c] = make([]pointSet, touches)
		for t := range in.fresh[c] {
			in.fresh[c][t] = uniformPoints(ch, sp, adds)
			ih.points(in.fresh[c][t])
		}
	}
	return in
}
