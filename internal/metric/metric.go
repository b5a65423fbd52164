// Package metric models the discretized metric spaces the paper works in.
//
// Throughout the paper (§2) Alice's and Bob's data points lie in a metric
// space (U, f), usually U = [∆]^d under an ℓp norm, or {0,1}^d under
// Hamming distance. Package metric provides the Point type (a vector of
// integer coordinates), the Space descriptor (∆, d, and which norm f is),
// and exact distance computation. It deliberately keeps coordinates as
// integers: the paper's communication bounds count log|U| = d·log ∆ bits
// per point, and integer coordinates make that accounting exact.
package metric

import (
	"fmt"
	"math"
	"strings"
)

// Norm selects the distance function f of the metric space.
type Norm int

const (
	// Hamming counts differing coordinates. On {0,1}^d this is the
	// Hamming metric of Lemma 2.3 and Corollary 3.5; it is also defined
	// on larger alphabets (number of coordinates that differ).
	Hamming Norm = iota
	// L1 is the ℓ1 (Manhattan) norm of Lemma 2.4 and Corollary 4.4.
	L1
	// L2 is the ℓ2 (Euclidean) norm of Lemma 2.5 and Corollary 3.6.
	L2
)

// String returns the conventional name of the norm.
func (n Norm) String() string {
	switch n {
	case Hamming:
		return "hamming"
	case L1:
		return "l1"
	case L2:
		return "l2"
	default:
		return fmt.Sprintf("norm(%d)", int(n))
	}
}

// Point is a point of [∆]^d: a length-d vector with coordinates in
// [0, ∆]. Points are value-ish: functions in this module never mutate a
// Point they receive and never alias one they return unless documented.
type Point []int32

// Clone returns an independent copy of p.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// String renders the point compactly, eliding long vectors.
func (p Point) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range p {
		if i == 8 && len(p) > 10 {
			fmt.Fprintf(&b, "…%d more", len(p)-i)
			break
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte(')')
	return b.String()
}

// Space describes a discretized metric space ([∆]^d, f).
//
// Delta is the maximum coordinate value (coordinates range over
// 0..Delta inclusive, so the per-dimension alphabet size is Delta+1; the
// paper's ∆). Dim is d. Norm is the distance function f.
type Space struct {
	Delta int32
	Dim   int
	Norm  Norm
}

// HammingCube returns the space ({0,1}^d, Hamming).
func HammingCube(d int) Space { return Space{Delta: 1, Dim: d, Norm: Hamming} }

// Grid returns the space ([∆]^d, norm).
func Grid(delta int32, d int, norm Norm) Space {
	return Space{Delta: delta, Dim: d, Norm: norm}
}

// String identifies the space in logs and test output.
func (s Space) String() string {
	return fmt.Sprintf("[%d]^%d,%s", s.Delta, s.Dim, s.Norm)
}

// Validate reports an error if the space parameters are unusable.
func (s Space) Validate() error {
	if s.Delta < 1 {
		return fmt.Errorf("metric: Delta = %d, need >= 1", s.Delta)
	}
	if s.Dim < 1 {
		return fmt.Errorf("metric: Dim = %d, need >= 1", s.Dim)
	}
	switch s.Norm {
	case Hamming, L1, L2:
		return nil
	default:
		return fmt.Errorf("metric: unknown norm %d", int(s.Norm))
	}
}

// Contains reports whether p is a valid point of s.
func (s Space) Contains(p Point) bool {
	if len(p) != s.Dim {
		return false
	}
	for _, v := range p {
		if v < 0 || v > s.Delta {
			return false
		}
	}
	return true
}

// Distance returns f(a, b). It panics if the points' dimensions disagree
// with the space: distance between malformed points is a programming
// error, not a runtime condition to handle.
func (s Space) Distance(a, b Point) float64 {
	if len(a) != s.Dim || len(b) != s.Dim {
		panic(fmt.Sprintf("metric: distance between dim %d and %d points in %s", len(a), len(b), s))
	}
	switch s.Norm {
	case Hamming:
		n := 0
		for i := range a {
			if a[i] != b[i] {
				n++
			}
		}
		return float64(n)
	case L1:
		var sum int64
		for i := range a {
			d := int64(a[i]) - int64(b[i])
			if d < 0 {
				d = -d
			}
			sum += d
		}
		return float64(sum)
	case L2:
		var sum float64
		for i := range a {
			d := float64(a[i]) - float64(b[i])
			sum += d * d
		}
		return math.Sqrt(sum)
	default:
		panic("metric: unknown norm")
	}
}

// Diameter returns the maximum possible distance between two points of s,
// the quantity the paper calls M when no tighter bound is known (§3:
// "we can simply use ... M = d·∆" for ℓ1; √d·∆ for ℓ2; d for Hamming).
func (s Space) Diameter() float64 {
	switch s.Norm {
	case Hamming:
		return float64(s.Dim)
	case L1:
		return float64(s.Dim) * float64(s.Delta)
	case L2:
		return math.Sqrt(float64(s.Dim)) * float64(s.Delta)
	default:
		panic("metric: unknown norm")
	}
}

// BitsPerCoordinate returns ceil(log2(Delta+1)), the exact coding cost of
// one coordinate.
func (s Space) BitsPerCoordinate() int {
	return bitsFor(uint64(s.Delta))
}

// BitsPerPoint returns the coding cost of one point, d·ceil(log2(∆+1)),
// the paper's log|U|.
func (s Space) BitsPerPoint() int {
	return s.Dim * s.BitsPerCoordinate()
}

// bitsFor returns the number of bits needed to represent values 0..max.
func bitsFor(max uint64) int {
	bits := 1
	for max > 1 {
		max >>= 1
		bits++
	}
	return bits
}

// Clamp returns p with every coordinate clamped into [0, Delta]. The
// RIBLT's duplicate-key extraction (§2.2 item 5) shifts averaged values
// back into the space this way.
func (s Space) Clamp(p Point) Point {
	q := p.Clone()
	for i, v := range q {
		if v < 0 {
			q[i] = 0
		} else if v > s.Delta {
			q[i] = s.Delta
		}
	}
	return q
}

// PointSet is a multiset of points. Order carries no meaning; protocols
// that need determinism sort or hash explicitly.
type PointSet []Point

// Clone deep-copies the set in two allocations: the coordinates of every
// point share one backing array (alive while any cloned point is), and
// each cloned point is capacity-capped, so appending to one cannot
// overwrite the next.
func (ps PointSet) Clone() PointSet {
	total := 0
	for _, p := range ps {
		total += len(p)
	}
	flat := make([]int32, total)
	out := make(PointSet, len(ps))
	for i, p := range ps {
		n := copy(flat, p)
		out[i] = Point(flat[:n:n])
		flat = flat[n:]
	}
	return out
}

// MinDistanceTo returns the minimum distance from p to any point of ps
// under space s, and the index achieving it. It returns (+Inf, -1) for an
// empty set.
func (ps PointSet) MinDistanceTo(s Space, p Point) (float64, int) {
	best := math.Inf(1)
	arg := -1
	for i, q := range ps {
		if d := s.Distance(p, q); d < best {
			best = d
			arg = i
		}
	}
	return best, arg
}
