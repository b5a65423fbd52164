// Package matching provides exact minimum-cost bipartite matching (the
// Hungarian method of Kuhn [20], implemented as successive shortest
// augmenting paths with Johnson potentials) and, on top of it, the
// paper's two ground-truth quantities: earth mover's distance
// (Definition 3.2) and EMD_k (Definition 3.3), the minimum EMD achievable
// after excluding k points from each side.
//
// The successive-shortest-path formulation is chosen deliberately: after
// j augmentations the algorithm holds a minimum-cost matching of
// cardinality exactly j, so one run yields EMD_k for every k at once
// (PrefixCosts), which the evaluation harness uses heavily.
package matching

import (
	"fmt"
	"math"

	"repro/internal/metric"
)

// Assign solves the rectangular assignment problem for a cost matrix with
// n rows and m columns (entries must be non-negative and finite). It
// returns rowToCol (length n, −1 for rows left unmatched when n > m) and
// the total cost of the optimal maximum-cardinality matching.
func Assign(cost [][]float64) (rowToCol []int, total float64) {
	s := newSolver(cost)
	card := s.n
	if s.m < card {
		card = s.m
	}
	for j := 0; j < card; j++ {
		if !s.augment() {
			break
		}
	}
	return s.matchL, s.matchedCost()
}

// PrefixCosts returns a slice pc of length min(n,m)+1 where pc[j] is the
// cost of a minimum-cost matching of cardinality j. pc[0] = 0 and pc is
// non-decreasing and convex.
func PrefixCosts(cost [][]float64) []float64 {
	s := newSolver(cost)
	card := s.n
	if s.m < card {
		card = s.m
	}
	pc := make([]float64, 1, card+1)
	for j := 0; j < card; j++ {
		if !s.augment() {
			break
		}
		pc = append(pc, s.matchedCost())
	}
	return pc
}

// solver holds the successive-shortest-path state over the bipartite
// graph: left nodes 0..n−1, right nodes 0..m−1.
type solver struct {
	n, m   int
	cost   [][]float64
	matchL []int // left → right, −1 if unmatched
	matchR []int // right → left, −1 if unmatched
	piL    []float64
	piR    []float64
	// scratch for Dijkstra
	distL, distR []float64
	doneL, doneR []bool
	// parent pointers: parR[j] = left node reaching right j;
	// parL[i] = right node reaching left i (via matched edge).
	parR []int
}

func newSolver(cost [][]float64) *solver {
	n := len(cost)
	m := 0
	if n > 0 {
		m = len(cost[0])
	}
	for i, row := range cost {
		if len(row) != m {
			panic(fmt.Sprintf("matching: ragged cost matrix at row %d", i))
		}
		for j, c := range row {
			if c < 0 || math.IsInf(c, 0) || math.IsNaN(c) {
				panic(fmt.Sprintf("matching: cost[%d][%d] = %v must be finite and non-negative", i, j, c))
			}
		}
	}
	s := &solver{
		n: n, m: m, cost: cost,
		matchL: make([]int, n), matchR: make([]int, m),
		piL: make([]float64, n), piR: make([]float64, m),
		distL: make([]float64, n), distR: make([]float64, m),
		doneL: make([]bool, n), doneR: make([]bool, m),
		parR: make([]int, m),
	}
	for i := range s.matchL {
		s.matchL[i] = -1
	}
	for j := range s.matchR {
		s.matchR[j] = -1
	}
	return s
}

func (s *solver) matchedCost() float64 {
	var total float64
	for i, j := range s.matchL {
		if j >= 0 {
			total += s.cost[i][j]
		}
	}
	return total
}

// augment finds one shortest augmenting path from the set of unmatched
// left nodes to any unmatched right node under reduced costs, updates the
// potentials, and flips the path. It returns false when no augmenting
// path exists.
func (s *solver) augment() bool {
	const inf = math.MaxFloat64
	for i := range s.distL {
		s.distL[i] = inf
		s.doneL[i] = false
	}
	for j := range s.distR {
		s.distR[j] = inf
		s.doneR[j] = false
		s.parR[j] = -1
	}
	for i := 0; i < s.n; i++ {
		if s.matchL[i] == -1 {
			s.distL[i] = 0
		}
	}
	target := -1
	var targetDist float64
	for {
		// Dense Dijkstra step: pick the unsettled node (left or right)
		// with minimum tentative distance.
		best := inf
		bestIsLeft := false
		bestIdx := -1
		for i := 0; i < s.n; i++ {
			if !s.doneL[i] && s.distL[i] < best {
				best, bestIsLeft, bestIdx = s.distL[i], true, i
			}
		}
		for j := 0; j < s.m; j++ {
			if !s.doneR[j] && s.distR[j] < best {
				best, bestIsLeft, bestIdx = s.distR[j], false, j
			}
		}
		if bestIdx == -1 {
			return false // no augmenting path
		}
		if bestIsLeft {
			i := bestIdx
			s.doneL[i] = true
			// Relax forward edges i → all right j.
			base := s.distL[i] + s.piL[i]
			for j := 0; j < s.m; j++ {
				if s.doneR[j] {
					continue
				}
				rc := base + s.cost[i][j] - s.piR[j]
				if rc < s.distR[j] {
					s.distR[j] = rc
					s.parR[j] = i
				}
			}
		} else {
			j := bestIdx
			s.doneR[j] = true
			if s.matchR[j] == -1 {
				target, targetDist = j, s.distR[j]
				break
			}
			// Relax the residual (matched) edge j → matchR[j].
			i := s.matchR[j]
			rc := s.distR[j] + s.piR[j] - s.cost[i][j] - s.piL[i]
			if !s.doneL[i] && rc < s.distL[i] {
				s.distL[i] = rc
			}
		}
	}
	// Potential update keeps all reduced costs non-negative and makes
	// every edge on a shortest path tight.
	for i := 0; i < s.n; i++ {
		if s.distL[i] < targetDist {
			s.piL[i] += s.distL[i] - targetDist
		}
	}
	for j := 0; j < s.m; j++ {
		if s.distR[j] < targetDist {
			s.piR[j] += s.distR[j] - targetDist
		}
	}
	// Flip the augmenting path by walking parents from the target.
	j := target
	for j != -1 {
		i := s.parR[j]
		prev := s.matchL[i]
		s.matchL[i] = j
		s.matchR[j] = i
		j = prev
	}
	return true
}

// CostMatrix builds the pairwise distance matrix between X (rows) and Y
// (columns) under space s.
func CostMatrix(s metric.Space, x, y metric.PointSet) [][]float64 {
	m := make([][]float64, len(x))
	for i, p := range x {
		row := make([]float64, len(y))
		for j, q := range y {
			row[j] = s.Distance(p, q)
		}
		m[i] = row
	}
	return m
}

// Assemble is the output step of Algorithm 1 and of the quadtree
// baseline: S′B = (SB \ YB) ∪ XA, where YB is the subset of SB matched
// to XB by a min-cost matching. Kept points stay in SB's order, XA
// follows; every point of the output is a copy.
func Assemble(s metric.Space, sb, xa, xb metric.PointSet) metric.PointSet {
	if len(xb) == 0 {
		return append(sb.Clone(), xa.Clone()...)
	}
	rows, _ := Assign(CostMatrix(s, xb, sb))
	drop := make([]bool, len(sb))
	dropped := 0
	for _, j := range rows {
		if j >= 0 {
			drop[j] = true
			dropped++
		}
	}
	out := make(metric.PointSet, 0, len(sb)-dropped+len(xa))
	for j, b := range sb {
		if !drop[j] {
			out = append(out, b.Clone())
		}
	}
	return append(out, xa.Clone()...)
}

// EMD returns the earth mover's distance between equal-sized point sets
// (Definition 3.2): the cost of the minimum-cost perfect matching.
func EMD(s metric.Space, x, y metric.PointSet) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matching: EMD between sets of size %d and %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return 0
	}
	_, total := Assign(CostMatrix(s, x, y))
	return total
}

// EMDWithMatching returns the optimal bijection (as an index map from x
// to y) along with its cost.
func EMDWithMatching(s metric.Space, x, y metric.PointSet) ([]int, float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matching: EMD between sets of size %d and %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return nil, 0
	}
	return Assign(CostMatrix(s, x, y))
}

// EMDk returns EMD_k(X, Y) (Definition 3.3): the minimum-cost matching of
// cardinality |X|−k, i.e. the EMD after the adversarially best exclusion
// of k points from each side. k must lie in [0, |X|].
func EMDk(s metric.Space, x, y metric.PointSet, k int) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matching: EMDk between sets of size %d and %d", len(x), len(y)))
	}
	if k < 0 || k > len(x) {
		panic(fmt.Sprintf("matching: EMDk with k=%d, n=%d", k, len(x)))
	}
	if len(x)-k == 0 {
		return 0
	}
	pc := PrefixCosts(CostMatrix(s, x, y))
	return pc[len(x)-k]
}

// EMDkAll returns EMD_k for all k = 0..n in one solve; EMDkAll(...)[k] ==
// EMDk(..., k). The harness uses this when sweeping k.
func EMDkAll(s metric.Space, x, y metric.PointSet) []float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("matching: EMDkAll between sets of size %d and %d", len(x), len(y)))
	}
	n := len(x)
	out := make([]float64, n+1)
	if n == 0 {
		return out
	}
	pc := PrefixCosts(CostMatrix(s, x, y))
	for k := 0; k <= n; k++ {
		j := n - k
		if j < len(pc) {
			out[k] = pc[j]
		} else {
			out[k] = math.Inf(1) // unreachable cardinality (cannot happen for square matrices)
		}
	}
	return out
}

// GreedyMatch returns a maximal greedy matching from x into y: each point
// of x is matched to its nearest currently unmatched point of y. It is
// not optimal; it serves as a fast baseline and as a sanity upper bound
// in tests (greedy cost ≥ optimal cost).
func GreedyMatch(s metric.Space, x, y metric.PointSet) ([]int, float64) {
	used := make([]bool, len(y))
	out := make([]int, len(x))
	var total float64
	for i, p := range x {
		best, arg := math.Inf(1), -1
		for j, q := range y {
			if used[j] {
				continue
			}
			if d := s.Distance(p, q); d < best {
				best, arg = d, j
			}
		}
		out[i] = arg
		if arg >= 0 {
			used[arg] = true
			total += best
		}
	}
	return out, total
}
