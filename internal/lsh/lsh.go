// Package lsh implements the locality sensitive hash families the paper
// builds on: the classical (r1, r2, p1, p2) notion of Indyk–Motwani
// (Definition 2.1), the paper's multi-scale strengthening (MLSH,
// Definition 2.2), and the concrete families used by its protocols —
// coordinate sampling for Hamming space (Lemma 2.3), randomly shifted
// grids for ℓ1 (Lemma 2.4), p-stable Gaussian projections for ℓ2
// (Lemma 2.5), and the one-sided grid family with p2 = 0 used by the
// low-dimension Gap protocol (Appendix E.1).
package lsh

import (
	"fmt"
	"math"

	"repro/internal/hashx"
	"repro/internal/metric"
	"repro/internal/rng"
)

// Func is one hash function drawn from a family. Implementations must be
// deterministic: the same Func applied to the same point always returns
// the same value (this is what lets Alice and Bob agree on hash values by
// sharing only the randomness that drew the Func).
type Func interface {
	Hash(p metric.Point) uint64
}

// Family is a distribution over hash functions U → V (Definition 2.1's
// H). Draw must consume randomness only from src, so that two parties
// with identical sources draw identical functions.
type Family interface {
	Draw(src *rng.Source) Func
	String() string
}

// Params carries the classical LSH guarantee (Definition 2.1): points
// within R1 collide with probability ≥ P1, points beyond R2 collide with
// probability ≤ P2.
type Params struct {
	R1, R2 float64
	P1, P2 float64
}

// Rho returns ρ = log(1/p1)/log(1/p2), the standard LSH quality
// meta-parameter (§2.1). Smaller is better. For the coordinate-sampling
// family ρ ≈ r1/r2; for p-stable ℓ2 families ρ ≈ (r1/r2)².
func (p Params) Rho() float64 {
	return math.Log(p.P1) / math.Log(p.P2)
}

// Validate reports an error when the parameters do not form a valid LSH
// guarantee.
func (p Params) Validate() error {
	if !(p.R1 < p.R2) {
		return fmt.Errorf("lsh: need r1 < r2, got r1=%v r2=%v", p.R1, p.R2)
	}
	if !(p.P1 > p.P2) {
		return fmt.Errorf("lsh: need p1 > p2, got p1=%v p2=%v", p.P1, p.P2)
	}
	if p.P1 <= 0 || p.P1 > 1 || p.P2 < 0 || p.P2 >= 1 {
		return fmt.Errorf("lsh: probabilities out of range: p1=%v p2=%v", p.P1, p.P2)
	}
	return nil
}

// MLSH is a multi-scale locality sensitive hash family (Definition 2.2):
// for any points x, y,
//
//	Pr[h(x)=h(y)] ≤ P^(Alpha·f(x,y)),  and
//	f(x,y) ≤ R  ⇒  Pr[h(x)=h(y)] ≥ P^f(x,y).
//
// The collision probability thus degrades gracefully (exponentially) with
// distance at every scale up to R, which is what lets Algorithm 1 probe
// geometrically finer resolutions by concatenating more functions.
type MLSH struct {
	Family Family
	R      float64 // validity radius of the lower bound
	P      float64 // base of the collision-probability envelope, in (0,1)
	Alpha  float64 // upper-envelope exponent scale, in (0,1)
}

// Validate reports an error when the MLSH parameters are out of range.
func (m MLSH) Validate() error {
	if m.Family == nil {
		return fmt.Errorf("lsh: MLSH with nil family")
	}
	if m.R <= 0 {
		return fmt.Errorf("lsh: MLSH radius R = %v, need > 0", m.R)
	}
	if m.P <= 0 || m.P >= 1 {
		return fmt.Errorf("lsh: MLSH base P = %v, need in (0,1)", m.P)
	}
	if m.Alpha <= 0 || m.Alpha >= 1 {
		return fmt.Errorf("lsh: MLSH alpha = %v, need in (0,1)", m.Alpha)
	}
	return nil
}

// String describes the family with its parameters.
func (m MLSH) String() string {
	return fmt.Sprintf("MLSH(%s, r=%.3g, p=%.6g, α=%.3g)", m.Family, m.R, m.P, m.Alpha)
}

// ---------------------------------------------------------------------------
// Coordinate sampling for Hamming space (Lemma 2.3).

// coordSample is the padded coordinate-sampling family: with probability
// d/w it reveals one uniformly chosen coordinate, with probability 1−d/w
// it is the constant 0 function. This realizes the padding construction
// in the footnote of §2.1: collision probability between points at
// Hamming distance f is exactly 1 − f/w.
type coordSample struct {
	dim int
	w   float64
}

type coordSampleFunc struct {
	idx int // −1 means constant function
}

func (f coordSampleFunc) Hash(p metric.Point) uint64 {
	if f.idx < 0 {
		return 0
	}
	// Offset by 1 so an active function sampling value 0 cannot be
	// confused with the constant function's output when values are
	// compared across differently drawn functions (the analysis only
	// compares outputs of the *same* draw, but distinct outputs keep
	// key hashing honest).
	return uint64(uint32(p[f.idx])) + 1
}

// NewCoordSampling returns the coordinate-sampling family over a
// Hamming-normed space with padding width w ≥ d.
func NewCoordSampling(space metric.Space, w float64) Family {
	if space.Norm != metric.Hamming {
		panic("lsh: coordinate sampling requires a Hamming-normed space")
	}
	if w < float64(space.Dim) {
		panic(fmt.Sprintf("lsh: padding width w=%v < d=%d", w, space.Dim))
	}
	return coordSample{dim: space.Dim, w: w}
}

// padDraw is the constant draw, boxed once: padded families draw it for
// almost every function, and Draw would otherwise allocate each time.
var padDraw Func = coordSampleFunc{idx: -1}

func (c coordSample) Draw(src *rng.Source) Func {
	if src.Float64() < float64(c.dim)/c.w {
		return coordSampleFunc{idx: src.Intn(c.dim)}
	}
	return padDraw
}

// Constant reports whether the drawn function f ignores its input and,
// if so, the value it returns for every point. Only the padding draws of
// coordinate sampling do; callers that hash many points with one vector
// of draws can evaluate those once instead of once per point.
func Constant(f Func) (uint64, bool) {
	if c, ok := f.(coordSampleFunc); ok && c.idx < 0 {
		return 0, true
	}
	return 0, false
}

func (c coordSample) String() string {
	return fmt.Sprintf("coord-sample(d=%d,w=%g)", c.dim, c.w)
}

// HammingMLSH returns the MLSH family of Lemma 2.3: for any w ≥ d,
// coordinate sampling with padding w is an MLSH with parameters
// (0.79·w, e^(−2/w), 1/2).
func HammingMLSH(space metric.Space, w float64) MLSH {
	return MLSH{
		Family: NewCoordSampling(space, w),
		R:      0.79 * w,
		P:      math.Exp(-2 / w),
		Alpha:  0.5,
	}
}

// ---------------------------------------------------------------------------
// Randomly shifted orthogonal grid for ℓ1 (Lemma 2.4).

// gridL1 rounds points to a randomly shifted orthogonal lattice of width
// w; the hash value identifies the lattice cell. Collision probability
// for ||x−y||1 ≤ w is ∏_i (1 − |x_i−y_i|/w), sandwiched by the Lemma 2.4
// bounds.
type gridL1 struct {
	dim int
	w   float64
}

type gridL1Func struct {
	shifts []float64
	w      float64
	mix    hashx.Mixer
}

func (f gridL1Func) Hash(p metric.Point) uint64 {
	h := f.mix.Hash(uint64(len(p)))
	for i, x := range p {
		cell := int64(math.Floor((float64(x) + f.shifts[i]) / f.w))
		h = f.mix.Hash(h ^ uint64(cell) ^ uint64(i)<<48)
	}
	return h
}

// NewGridL1 returns the randomly-shifted-grid family with cell width w.
func NewGridL1(space metric.Space, w float64) Family {
	if w <= 0 {
		panic("lsh: grid width must be positive")
	}
	return gridL1{dim: space.Dim, w: w}
}

func (g gridL1) Draw(src *rng.Source) Func {
	shifts := make([]float64, g.dim)
	for i := range shifts {
		shifts[i] = src.Float64() * g.w
	}
	return gridL1Func{shifts: shifts, w: g.w, mix: hashx.NewMixer(src)}
}

func (g gridL1) String() string {
	return fmt.Sprintf("grid-l1(d=%d,w=%g)", g.dim, g.w)
}

// L1MLSH returns the MLSH family of Lemma 2.4: for any w > 0, the
// randomly shifted grid of width w is an MLSH for ([∆]^d, ℓ1) with
// parameters (0.79·w, e^(−2/w), 1/2).
func L1MLSH(space metric.Space, w float64) MLSH {
	return MLSH{
		Family: NewGridL1(space, w),
		R:      0.79 * w,
		P:      math.Exp(-2 / w),
		Alpha:  0.5,
	}
}

// ---------------------------------------------------------------------------
// p-stable (Gaussian) projection for ℓ2 (Lemma 2.5, following [8]).

type pStableL2 struct {
	dim int
	w   float64
}

type pStableL2Func struct {
	dirs []float64
	a    float64
	w    float64
}

func (f pStableL2Func) Hash(p metric.Point) uint64 {
	dot := f.a
	for i, x := range p {
		dot += f.dirs[i] * float64(x)
	}
	cell := int64(math.Floor(dot / f.w))
	// Zigzag so negative cells map to distinct uint64 values.
	return uint64(cell<<1) ^ uint64(cell>>63)
}

// NewPStableL2 returns the Datar–Immorlica–Indyk–Mirrokni p-stable family
// for ℓ2 with window w: project on a Gaussian direction, shift uniformly,
// round to width-w intervals.
func NewPStableL2(space metric.Space, w float64) Family {
	if w <= 0 {
		panic("lsh: p-stable window must be positive")
	}
	return pStableL2{dim: space.Dim, w: w}
}

func (g pStableL2) Draw(src *rng.Source) Func {
	dirs := make([]float64, g.dim)
	for i := range dirs {
		dirs[i] = src.NormFloat64()
	}
	return pStableL2Func{dirs: dirs, a: src.Float64() * g.w, w: g.w}
}

func (g pStableL2) String() string {
	return fmt.Sprintf("p-stable-l2(d=%d,w=%g)", g.dim, g.w)
}

// L2MLSH returns the MLSH family of Lemma 2.5: for any w > 0, the
// p-stable scheme with window w is an MLSH for ([∆]^d, ℓ2) with
// parameters (0.99·w, e^(−2√(2/π)/w), 1/(4√2)).
func L2MLSH(space metric.Space, w float64) MLSH {
	return MLSH{
		Family: NewPStableL2(space, w),
		R:      0.99 * w,
		P:      math.Exp(-2 * math.Sqrt(2/math.Pi) / w),
		Alpha:  1 / (4 * math.Sqrt2),
	}
}

// ---------------------------------------------------------------------------
// One-sided grid family (Appendix E.1): p2 = 0.

// OneSidedGrid is the special family used by Theorem 4.5: a randomly
// shifted orthogonal grid of width r2/d^(1/p) in ([∆]^d, ℓp). Two points
// in the same cell are at ℓp distance < r2 with certainty (so p2 = 0),
// and points within r1 collide with probability ≥ 1 − r1·d/r2 = 1 − ρ̂.
type OneSidedGrid struct {
	dim   int
	width float64
	// RhoHat is ρ̂ = r1·d/r2, the per-function miss probability bound.
	RhoHat float64
}

// NewOneSidedGrid builds the family for ([∆]^d, ℓp) with the given
// r1 < r2 and norm exponent pExp ≥ 1.
func NewOneSidedGrid(space metric.Space, r1, r2, pExp float64) OneSidedGrid {
	if !(r1 < r2) || r1 <= 0 {
		panic("lsh: one-sided grid needs 0 < r1 < r2")
	}
	d := float64(space.Dim)
	return OneSidedGrid{
		dim:    space.Dim,
		width:  r2 / math.Pow(d, 1/pExp),
		RhoHat: r1 * d / r2,
	}
}

// Draw implements Family.
func (g OneSidedGrid) Draw(src *rng.Source) Func {
	shifts := make([]float64, g.dim)
	for i := range shifts {
		shifts[i] = src.Float64() * g.width
	}
	return gridL1Func{shifts: shifts, w: g.width, mix: hashx.NewMixer(src)}
}

// String implements Family.
func (g OneSidedGrid) String() string {
	return fmt.Sprintf("one-sided-grid(d=%d,w=%g)", g.dim, g.width)
}

// ---------------------------------------------------------------------------
// Classical parameterizations for the Gap protocol.

// HammingParams returns the (r1, r2, p1, p2) guarantee of coordinate
// sampling (no padding) on a Hamming space of dimension d: collision
// probability at distance f is exactly 1 − f/d.
func HammingParams(space metric.Space, r1, r2 float64) Params {
	d := float64(space.Dim)
	return Params{R1: r1, R2: r2, P1: 1 - r1/d, P2: 1 - r2/d}
}

// GridL1Params returns a conservative (r1, r2, p1, p2) guarantee for the
// randomly shifted grid of width w on ([∆]^d, ℓ1): at distance f the
// collision probability lies in [1−f/w, e^(−f/w)], so p1 = 1−r1/w and
// p2 = e^(−r2/w) (valid for r1 ≤ w).
func GridL1Params(space metric.Space, r1, r2, w float64) Params {
	return Params{R1: r1, R2: r2, P1: 1 - r1/w, P2: math.Exp(-r2 / w)}
}

// ---------------------------------------------------------------------------
// Vectors of drawn functions.

// Vector is an ordered list of functions drawn from one family,
// evaluated densely: every function on every point. The EMD protocol
// hashes each point with a *prefix* of the vector whose length grows
// with the resolution level; its plan draws the same functions but
// evaluates only the non-Constant ones, so for EMD a Vector is the
// reference its sparse keys are tested against and the path the
// benchmark's per-layer replay times.
//
// A Vector is immutable after DrawVector, and drawn Funcs are pure, so
// concurrent evaluation from many goroutines is safe.
type Vector struct {
	funcs []Func
}

// DrawVector draws n functions from family using src.
func DrawVector(family Family, src *rng.Source, n int) *Vector {
	fs := make([]Func, n)
	for i := range fs {
		fs[i] = family.Draw(src)
	}
	return &Vector{funcs: fs}
}

// Len returns the number of drawn functions.
func (v *Vector) Len() int { return len(v.funcs) }

// Hash evaluates all functions on p.
func (v *Vector) Hash(p metric.Point) []uint64 {
	return v.HashPrefix(p, len(v.funcs))
}

// HashPrefix evaluates the first n functions on p. It panics if n exceeds
// the vector length.
func (v *Vector) HashPrefix(p metric.Point, n int) []uint64 {
	if n > len(v.funcs) {
		panic(fmt.Sprintf("lsh: prefix %d exceeds vector length %d", n, len(v.funcs)))
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = v.funcs[i].Hash(p)
	}
	return out
}

// HashPrefixInto evaluates the first n functions into dst (which must
// have length ≥ n) and returns dst[:n]. This avoids per-point allocation
// in the protocols' hot loops.
func (v *Vector) HashPrefixInto(dst []uint64, p metric.Point, n int) []uint64 {
	for i := 0; i < n; i++ {
		dst[i] = v.funcs[i].Hash(p)
	}
	return dst[:n]
}

// ---------------------------------------------------------------------------
// Empirical collision measurement (used by the MLSH sandwich tests).

// EstimateCollision draws `trials` functions from family (seeded by seed)
// and returns the fraction under which a and b collide.
func EstimateCollision(family Family, a, b metric.Point, trials int, seed uint64) float64 {
	src := rng.New(seed)
	coll := 0
	for i := 0; i < trials; i++ {
		f := family.Draw(src)
		if f.Hash(a) == f.Hash(b) {
			coll++
		}
	}
	return float64(coll) / float64(trials)
}
