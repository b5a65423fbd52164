// Package robustsync is a Go implementation of robust set reconciliation
// via locality sensitive hashing, reproducing Mitzenmacher & Morgan
// (PODS 2019, arXiv:1807.09694).
//
// Two parties, Alice and Bob, hold sets of points in a discretized metric
// space ([∆]^d under Hamming, ℓ1 or ℓ2). Points that are close should be
// treated as equal — sensor noise, float rounding, lossy compression —
// and the goal is for Bob to end up with a set close to Alice's while
// communicating far less than the sets' size. The package exposes the
// paper's two models:
//
//   - Earth Mover's Distance model (Algorithm 1): Bob computes S′B of the
//     same cardinality with EMD(SA, S′B) ≤ O(log n)·EMD_k(SA, SB) using
//     Õ(k) communication in a single message. See ReconcileEMD and
//     ReconcileEMDScaled.
//
//   - Gap Guarantee model (Theorem 4.2): given radii r1 < r2, Bob ends
//     with SB ∪ TA such that every point of SA has a neighbor within r2,
//     in 4 rounds of (k + ρn)·polylog(n) + k·log|U| communication. See
//     ReconcileGap and ReconcileGapOneSided.
//
// Classic exact set reconciliation (IBLT-based, the substrate both
// protocols build on) is exposed as SyncIDs for applications like
// transaction relay.
//
// Everything runs on explicit shared seeds (the paper's public coins):
// two processes that construct the same Params produce bit-identical
// protocol messages, so the in-process helpers here translate directly
// to a networked deployment.
package robustsync

import (
	"repro/internal/emd"
	"repro/internal/gap"
	"repro/internal/iblt"
	"repro/internal/metric"
	"repro/internal/quadtree"
)

// Point is a point of [∆]^d: integer coordinates in [0, ∆].
type Point = metric.Point

// PointSet is a multiset of points.
type PointSet = metric.PointSet

// Space describes the metric space ([∆]^d, f).
type Space = metric.Space

// Norm selects the distance function.
type Norm = metric.Norm

// Supported norms.
const (
	Hamming = metric.Hamming
	L1      = metric.L1
	L2      = metric.L2
)

// HammingSpace returns ({0,1}^d, Hamming distance).
func HammingSpace(d int) Space { return metric.HammingCube(d) }

// GridSpace returns ([∆]^d, norm).
func GridSpace(delta int32, d int, norm Norm) Space { return metric.Grid(delta, d, norm) }

// EMDParams configures the Earth Mover's Distance protocol; see
// emd.Params for field documentation.
type EMDParams = emd.Params

// EMDResult reports an EMD protocol run.
type EMDResult = emd.Result

// EMDScaledResult reports an interval-scaled run (Corollary 3.6).
type EMDScaledResult = emd.ScaledResult

// DefaultEMDParams returns the no-prior-knowledge parameterization of §3.
func DefaultEMDParams(space Space, n, k int, seed uint64) EMDParams {
	return emd.DefaultParams(space, n, k, seed)
}

// ReconcileEMD runs Algorithm 1: one message from Alice lets Bob compute
// S′B with EMD(SA, S′B) ≤ O(log n)·EMD_k(SA, SB) with constant
// probability (Theorem 3.4). Both point sets must have size p.N.
func ReconcileEMD(p EMDParams, sa, sb PointSet) (EMDResult, error) {
	return emd.Reconcile(p, sa, sb)
}

// ReconcileEMDScaled runs the Corollary 3.6 interval-scaling strategy,
// which needs no prior knowledge of EMD_k and keeps per-interval hashing
// cheap.
func ReconcileEMDScaled(p EMDParams, sa, sb PointSet) (EMDScaledResult, error) {
	return emd.ReconcileScaled(p, sa, sb)
}

// GapParams configures the Gap Guarantee protocol; see gap.Params.
type GapParams = gap.Params

// GapResult reports a Gap Guarantee run.
type GapResult = gap.Result

// ReconcileGap runs the 4-round Theorem 4.2 protocol: Bob receives every
// point of Alice's that is ≥ r2 from all of his (and possibly a few
// extras), guaranteeing r2-coverage of SA ∪ SB by S′B.
func ReconcileGap(p GapParams, sa, sb PointSet) (GapResult, error) {
	return gap.Reconcile(p, sa, sb)
}

// ReconcileGapOneSided runs the Theorem 4.5 low-dimension variant for
// ([∆]^d, ℓp); pExp is the norm exponent. Requires r2 > r1·d.
func ReconcileGapOneSided(p GapParams, pExp float64, sa, sb PointSet) (GapResult, error) {
	return gap.ReconcileOneSided(p, pExp, sa, sb)
}

// QuadtreeParams configures the Chen et al. [7] baseline protocol.
type QuadtreeParams = quadtree.Params

// ReconcileQuadtree runs the randomly-offset quadtree baseline (an O(d)
// approximation), provided for comparison.
func ReconcileQuadtree(p QuadtreeParams, sa, sb PointSet) (quadtree.Result, error) {
	return quadtree.Reconcile(p, sa, sb)
}

// SyncIDs performs classic exact set reconciliation over 64-bit
// identifiers (§2.2's IBLT protocol): given Bob's and Alice's ID sets and
// a bound on their difference, it returns the IDs only Bob has and the
// IDs only Alice has, retrying with doubled capacity on the (rare)
// peeling failure.
func SyncIDs(bob, alice []uint64, diffBound int, seed uint64) (onlyBob, onlyAlice []uint64, err error) {
	return iblt.DiffAdaptive(bob, alice, diffBound, 3, seed, 6)
}

// EstimateDiff estimates |bob △ alice| without prior context using strata
// estimators ([10]), the standard way to choose SyncIDs' diffBound.
func EstimateDiff(bob, alice []uint64, seed uint64) (int, error) {
	sb := iblt.NewStrataFromKeys(iblt.StrataCells, seed, bob)
	return sb.Estimate(iblt.NewStrataFromKeys(iblt.StrataCells, seed, alice))
}
