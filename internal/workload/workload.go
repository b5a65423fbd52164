// Package workload generates the synthetic instances the evaluation
// needs. The paper motivates robust reconciliation with sensors observing
// the same objects through noise (§1): each party holds one noisy view of
// a mostly shared object set, plus a few points the other party lacks.
// Generators here produce exactly that structure for each metric space,
// with the ground truth (which points are "far", what the planted noise
// was) retained so tests can score protocol output.
package workload

import (
	"fmt"
	"math"

	"repro/internal/metric"
	"repro/internal/rng"
)

// RandomPoint draws a uniform point of the space.
func RandomPoint(space metric.Space, src *rng.Source) metric.Point {
	p := make(metric.Point, space.Dim)
	for i := range p {
		p[i] = int32(src.Uint64n(uint64(space.Delta) + 1))
	}
	return p
}

// RandomSet draws n uniform points.
func RandomSet(space metric.Space, n int, src *rng.Source) metric.PointSet {
	ps := make(metric.PointSet, n)
	for i := range ps {
		ps[i] = RandomPoint(space, src)
	}
	return ps
}

// PerturbHamming returns a copy of p with exactly `flips` distinct
// coordinates cycled to a different value (for binary spaces, flipped).
// The result is at Hamming distance exactly min(flips, d) from p.
func PerturbHamming(space metric.Space, p metric.Point, flips int, src *rng.Source) metric.Point {
	q := p.Clone()
	if flips > space.Dim {
		flips = space.Dim
	}
	perm := src.Perm(space.Dim)
	for _, idx := range perm[:flips] {
		if space.Delta == 1 {
			q[idx] ^= 1
		} else {
			// Shift to a uniformly random *different* value.
			off := int32(src.Uint64n(uint64(space.Delta))) + 1
			q[idx] = (q[idx] + off) % (space.Delta + 1)
		}
	}
	return q
}

// PerturbWithin returns a copy of p moved by at most dist under the
// space's norm. Noise is spread over all coordinates. The displacement is
// random but its norm is guaranteed ≤ dist; coordinates are clamped into
// the space (clamping only shrinks the displacement).
func PerturbWithin(space metric.Space, p metric.Point, dist float64, src *rng.Source) metric.Point {
	q := p.Clone()
	switch space.Norm {
	case metric.Hamming:
		return PerturbHamming(space, p, int(dist), src)
	case metric.L1:
		// Split an ℓ1 budget across coordinates with random signs.
		budget := dist
		perm := src.Perm(space.Dim)
		for _, idx := range perm {
			if budget < 1 {
				break
			}
			step := float64(src.Uint64n(uint64(budget) + 1))
			budget -= step
			if src.Bool() {
				step = -step
			}
			q[idx] += int32(step)
		}
	case metric.L2:
		// Random direction scaled so the ℓ2 norm is ≤ dist, with floor
		// rounding (which can only shrink the norm per coordinate...
		// rounding is toward zero to keep the guarantee).
		dir := make([]float64, space.Dim)
		var norm float64
		for i := range dir {
			dir[i] = src.NormFloat64()
			norm += dir[i] * dir[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return space.Clamp(q)
		}
		scale := src.Float64() * dist / norm
		for i := range dir {
			q[i] += int32(math.Trunc(dir[i] * scale))
		}
	}
	return space.Clamp(q)
}

// FarPoint draws a uniform point at distance ≥ minDist from every point
// of anchor, retrying up to maxTries times. It returns an error when the
// space is too crowded to find one (caller chose an unsatisfiable r2).
func FarPoint(space metric.Space, anchor metric.PointSet, minDist float64, src *rng.Source, maxTries int) (metric.Point, error) {
	for try := 0; try < maxTries; try++ {
		p := RandomPoint(space, src)
		if d, _ := anchor.MinDistanceTo(space, p); d >= minDist {
			return p, nil
		}
	}
	return nil, fmt.Errorf("workload: no point at distance >= %v from %d anchors after %d tries",
		minDist, len(anchor), maxTries)
}

// EMDInstance is a planted Earth Mover's Distance model instance
// (Definition 3.1): |SA| = |SB| = n, where n−k of Alice's points are
// noisy copies of Bob's and k are unrelated outliers.
type EMDInstance struct {
	Space metric.Space
	SA    metric.PointSet // Alice's points
	SB    metric.PointSet // Bob's points
	// K is the number of planted outlier pairs; EMD_K(SA, SB) ≤ N·Noise.
	K int
	// Noise bounds the planted per-pair displacement.
	Noise float64
}

// NewEMDInstance plants an instance: Bob holds n uniform points; Alice
// holds noisy copies of n−k of them (displaced by ≤ noise each) plus k
// fresh uniform points. Point order is shuffled on both sides so
// protocols cannot exploit alignment.
func NewEMDInstance(space metric.Space, n, k int, noise float64, seed uint64) EMDInstance {
	if k > n {
		panic(fmt.Sprintf("workload: k=%d > n=%d", k, n))
	}
	src := rng.New(seed)
	sb := RandomSet(space, n, src)
	sa := make(metric.PointSet, 0, n)
	for _, p := range sb[:n-k] {
		sa = append(sa, PerturbWithin(space, p, noise, src))
	}
	for i := 0; i < k; i++ {
		sa = append(sa, RandomPoint(space, src))
	}
	src.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
	src.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
	return EMDInstance{Space: space, SA: sa, SB: sb, K: k, Noise: noise}
}

// GapInstance is a planted Gap Guarantee model instance (Definition 4.1):
// every point of CA ⊂ SA is within r1 of SB and vice versa, while
// Far ⊂ SA is at distance ≥ r2 from all of SB. A correct protocol must
// deliver every point of Far to Bob.
type GapInstance struct {
	Space  metric.Space
	SA, SB metric.PointSet
	R1, R2 float64
	// Far is the ground-truth set of Alice's far points (|Far| ≤ k).
	Far metric.PointSet
	// KBob is the number of Bob-only far points planted (they are
	// allowed by the model; the protocol need not transfer them).
	KBob int
}

// NewGapInstance plants an instance: a base cloud of nShared points known
// to both parties (each side holds an independently perturbed copy within
// r1/2, so cross-party distance is ≤ r1), plus kAlice points far from
// everything on Alice's side and kBob far points on Bob's side.
func NewGapInstance(space metric.Space, nShared, kAlice, kBob int, r1, r2 float64, seed uint64) (GapInstance, error) {
	src := rng.New(seed)
	base := RandomSet(space, nShared, src)
	sa := make(metric.PointSet, 0, nShared+kAlice)
	sb := make(metric.PointSet, 0, nShared+kBob)
	for _, p := range base {
		sa = append(sa, PerturbWithin(space, p, r1/2, src))
		sb = append(sb, PerturbWithin(space, p, r1/2, src))
	}
	// Far points must clear r2 against the *other party's entire set*,
	// including the other party's far points (Definition 4.1 only
	// bounds |CA|, |CB| from below, but keeping plants clean makes the
	// ground truth unambiguous).
	var far metric.PointSet
	anchors := append(metric.PointSet{}, base...)
	for i := 0; i < kAlice; i++ {
		p, err := FarPoint(space, anchors, r2*1.05, src, 4000)
		if err != nil {
			return GapInstance{}, err
		}
		far = append(far, p)
		anchors = append(anchors, p)
		sa = append(sa, p)
	}
	for i := 0; i < kBob; i++ {
		p, err := FarPoint(space, anchors, r2*1.05, src, 4000)
		if err != nil {
			return GapInstance{}, err
		}
		anchors = append(anchors, p)
		sb = append(sb, p)
	}
	src.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
	src.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
	return GapInstance{
		Space: space, SA: sa, SB: sb, R1: r1, R2: r2, Far: far, KBob: kBob,
	}, nil
}

// Verify checks the planted invariants of the instance (used by tests
// before trusting a configuration): every Alice point
// is either within r1 of SB or a planted far point at distance ≥ r2.
func (g GapInstance) Verify() error {
	farSet := map[string]bool{}
	for _, p := range g.Far {
		farSet[p.String()] = true
	}
	for _, a := range g.SA {
		d, _ := g.SB.MinDistanceTo(g.Space, a)
		if farSet[a.String()] {
			if d < g.R2 {
				return fmt.Errorf("workload: planted far point %v at distance %v < r2=%v", a, d, g.R2)
			}
		} else if d > g.R1 {
			return fmt.Errorf("workload: close point %v at distance %v > r1=%v", a, d, g.R1)
		}
	}
	return nil
}

// SpreadCodewords returns `count` points of {0,1}^d with pairwise Hamming
// distance ≥ minDist, built greedily from random words. This substitutes
// for the Reed–Muller codebook in the Theorem 4.6 lower-bound instance
// (Appendix F): only the pairwise-distance property matters to the
// reduction, and random codewords achieve it whp for d = Ω(log n + r2).
func SpreadCodewords(d, count, minDist int, seed uint64) ([]metric.Point, error) {
	space := metric.HammingCube(d)
	src := rng.New(seed)
	out := make([]metric.Point, 0, count)
	const maxTries = 20000
	tries := 0
	for len(out) < count {
		if tries++; tries > maxTries {
			return nil, fmt.Errorf("workload: cannot place %d codewords at distance %d in {0,1}^%d",
				count, minDist, d)
		}
		cand := RandomPoint(space, src)
		ok := true
		for _, c := range out {
			if space.Distance(cand, c) < float64(minDist) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, cand)
		}
	}
	return out, nil
}
