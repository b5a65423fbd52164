package matching

import (
	"math"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

// bruteAssign enumerates all injections of rows into columns of the given
// cardinality and returns the minimum total cost. Exponential; for tests
// on tiny instances only.
func bruteAssign(cost [][]float64, card int) float64 {
	n := len(cost)
	m := 0
	if n > 0 {
		m = len(cost[0])
	}
	best := math.Inf(1)
	usedCol := make([]bool, m)
	var rec func(row, placed int, acc float64)
	rec = func(row, placed int, acc float64) {
		if placed == card {
			if acc < best {
				best = acc
			}
			return
		}
		if row == n || n-row < card-placed {
			return
		}
		rec(row+1, placed, acc) // skip this row
		for j := 0; j < m; j++ {
			if !usedCol[j] {
				usedCol[j] = true
				rec(row+1, placed+1, acc+cost[row][j])
				usedCol[j] = false
			}
		}
	}
	rec(0, 0, 0)
	return best
}

func randMatrix(src *rng.Source, n, m int) [][]float64 {
	c := make([][]float64, n)
	for i := range c {
		c[i] = make([]float64, m)
		for j := range c[i] {
			c[i][j] = float64(src.Intn(100))
		}
	}
	return c
}

func TestAssignMatchesBruteForceSquare(t *testing.T) {
	src := rng.New(1)
	for trial := 0; trial < 60; trial++ {
		n := src.Intn(6) + 1
		cost := randMatrix(src, n, n)
		_, got := Assign(cost)
		want := bruteAssign(cost, n)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (n=%d): Assign = %v, brute = %v, cost=%v", trial, n, got, want, cost)
		}
	}
}

func TestAssignMatchesBruteForceRectangular(t *testing.T) {
	src := rng.New(2)
	for trial := 0; trial < 60; trial++ {
		n := src.Intn(5) + 1
		m := src.Intn(5) + 1
		cost := randMatrix(src, n, m)
		card := n
		if m < card {
			card = m
		}
		rows, got := Assign(cost)
		want := bruteAssign(cost, card)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d (%dx%d): Assign = %v, brute = %v", trial, n, m, got, want)
		}
		// Validity of the returned assignment.
		matched := 0
		seen := make(map[int]bool)
		for i, j := range rows {
			if j == -1 {
				continue
			}
			if j < 0 || j >= m || seen[j] {
				t.Fatalf("invalid assignment row %d -> %d", i, j)
			}
			seen[j] = true
			matched++
		}
		if matched != card {
			t.Fatalf("matched %d, want %d", matched, card)
		}
	}
}

func TestPrefixCostsMatchBruteForce(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 40; trial++ {
		n := src.Intn(5) + 1
		m := src.Intn(5) + 1
		cost := randMatrix(src, n, m)
		pc := PrefixCosts(cost)
		card := n
		if m < card {
			card = m
		}
		if len(pc) != card+1 {
			t.Fatalf("PrefixCosts length %d, want %d", len(pc), card+1)
		}
		for j := 0; j <= card; j++ {
			want := bruteAssign(cost, j)
			if math.Abs(pc[j]-want) > 1e-9 {
				t.Fatalf("trial %d: pc[%d] = %v, brute = %v", trial, j, pc[j], want)
			}
		}
	}
}

func TestPrefixCostsConvex(t *testing.T) {
	src := rng.New(4)
	cost := randMatrix(src, 12, 12)
	pc := PrefixCosts(cost)
	for j := 2; j < len(pc); j++ {
		d1 := pc[j-1] - pc[j-2]
		d2 := pc[j] - pc[j-1]
		if d2 < d1-1e-9 {
			t.Fatalf("prefix costs not convex at %d: %v then %v", j, d1, d2)
		}
	}
}

func TestAssignPanicsOnBadInput(t *testing.T) {
	assertPanics(t, "ragged", func() { Assign([][]float64{{1, 2}, {3}}) })
	assertPanics(t, "negative", func() { Assign([][]float64{{-1}}) })
	assertPanics(t, "nan", func() { Assign([][]float64{{math.NaN()}}) })
}

func TestAssignEmpty(t *testing.T) {
	rows, total := Assign(nil)
	if len(rows) != 0 || total != 0 {
		t.Errorf("empty assign = %v, %v", rows, total)
	}
}

func TestEMDBasics(t *testing.T) {
	s := metric.Grid(100, 1, metric.L1)
	x := metric.PointSet{{10}, {20}, {30}}
	y := metric.PointSet{{12}, {19}, {33}}
	// Optimal matching is the order-preserving one: 2 + 1 + 3 = 6.
	if got := EMD(s, x, y); got != 6 {
		t.Errorf("EMD = %v, want 6", got)
	}
	if got := EMD(s, x, x); got != 0 {
		t.Errorf("EMD(x,x) = %v", got)
	}
	if got := EMD(s, nil, nil); got != 0 {
		t.Errorf("EMD(∅,∅) = %v", got)
	}
}

func TestEMDSymmetric(t *testing.T) {
	s := metric.Grid(1000, 3, metric.L2)
	src := rng.New(5)
	mk := func() metric.PointSet {
		ps := make(metric.PointSet, 8)
		for i := range ps {
			ps[i] = metric.Point{int32(src.Intn(1000)), int32(src.Intn(1000)), int32(src.Intn(1000))}
		}
		return ps
	}
	for trial := 0; trial < 10; trial++ {
		x, y := mk(), mk()
		if d1, d2 := EMD(s, x, y), EMD(s, y, x); math.Abs(d1-d2) > 1e-9 {
			t.Fatalf("EMD asymmetric: %v vs %v", d1, d2)
		}
	}
}

func TestEMDTriangleInequality(t *testing.T) {
	s := metric.Grid(1000, 2, metric.L1)
	src := rng.New(6)
	mk := func() metric.PointSet {
		ps := make(metric.PointSet, 6)
		for i := range ps {
			ps[i] = metric.Point{int32(src.Intn(1000)), int32(src.Intn(1000))}
		}
		return ps
	}
	for trial := 0; trial < 20; trial++ {
		x, y, z := mk(), mk(), mk()
		if EMD(s, x, z) > EMD(s, x, y)+EMD(s, y, z)+1e-9 {
			t.Fatal("EMD violates triangle inequality")
		}
	}
}

func TestEMDkDefinition(t *testing.T) {
	s := metric.Grid(1000, 1, metric.L1)
	// Three near-identical pairs plus one gross outlier pair: EMD is
	// dominated by the outlier, EMD_1 excludes it. On a line the optimal
	// perfect matching is the sorted-order one:
	// 10→0, 20→11, 30→21, 1000→31 = 10+9+9+969 = 997.
	x := metric.PointSet{{10}, {20}, {30}, {1000}}
	y := metric.PointSet{{11}, {21}, {31}, {0}}
	if got := EMD(s, x, y); got != 997 {
		t.Errorf("EMD = %v, want 997", got)
	}
	if got := EMDk(s, x, y, 1); got != 3 {
		t.Errorf("EMD_1 = %v, want 3", got)
	}
	if got := EMDk(s, x, y, 4); got != 0 {
		t.Errorf("EMD_4 = %v, want 0", got)
	}
	if got := EMDk(s, x, y, 0); got != 997 {
		t.Errorf("EMD_0 = %v, want 997", got)
	}
}

func TestEMDkAllConsistent(t *testing.T) {
	s := metric.Grid(500, 2, metric.L2)
	src := rng.New(7)
	n := 9
	x := make(metric.PointSet, n)
	y := make(metric.PointSet, n)
	for i := 0; i < n; i++ {
		x[i] = metric.Point{int32(src.Intn(500)), int32(src.Intn(500))}
		y[i] = metric.Point{int32(src.Intn(500)), int32(src.Intn(500))}
	}
	all := EMDkAll(s, x, y)
	if len(all) != n+1 {
		t.Fatalf("EMDkAll length %d", len(all))
	}
	for k := 0; k <= n; k++ {
		if single := EMDk(s, x, y, k); math.Abs(all[k]-single) > 1e-9 {
			t.Errorf("k=%d: all=%v single=%v", k, all[k], single)
		}
	}
	// Monotone non-increasing in k.
	for k := 1; k <= n; k++ {
		if all[k] > all[k-1]+1e-9 {
			t.Errorf("EMD_k not monotone at k=%d", k)
		}
	}
}

func TestEMDPanics(t *testing.T) {
	s := metric.Grid(10, 1, metric.L1)
	assertPanics(t, "size mismatch", func() { EMD(s, metric.PointSet{{1}}, nil) })
	assertPanics(t, "EMDk bad k", func() { EMDk(s, metric.PointSet{{1}}, metric.PointSet{{2}}, 2) })
	assertPanics(t, "EMDk negative k", func() { EMDk(s, metric.PointSet{{1}}, metric.PointSet{{2}}, -1) })
}

func TestGreedyUpperBoundsOptimal(t *testing.T) {
	s := metric.Grid(1000, 2, metric.L1)
	src := rng.New(8)
	for trial := 0; trial < 20; trial++ {
		n := src.Intn(10) + 2
		x := make(metric.PointSet, n)
		y := make(metric.PointSet, n)
		for i := 0; i < n; i++ {
			x[i] = metric.Point{int32(src.Intn(1000)), int32(src.Intn(1000))}
			y[i] = metric.Point{int32(src.Intn(1000)), int32(src.Intn(1000))}
		}
		_, greedy := GreedyMatch(s, x, y)
		opt := EMD(s, x, y)
		if greedy < opt-1e-9 {
			t.Fatalf("greedy %v beat optimal %v", greedy, opt)
		}
	}
}

func TestEMDWithMatchingIsBijection(t *testing.T) {
	s := metric.Grid(100, 1, metric.L1)
	x := metric.PointSet{{1}, {2}, {3}, {4}}
	y := metric.PointSet{{4}, {3}, {2}, {1}}
	m, total := EMDWithMatching(s, x, y)
	if total != 0 {
		t.Errorf("total = %v, want 0 (sets are equal as multisets)", total)
	}
	seen := map[int]bool{}
	for _, j := range m {
		if j < 0 || seen[j] {
			t.Fatalf("not a bijection: %v", m)
		}
		seen[j] = true
	}
}

func BenchmarkAssign64(b *testing.B) {
	src := rng.New(9)
	cost := randMatrix(src, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Assign(cost)
	}
}

func BenchmarkAssign256(b *testing.B) {
	src := rng.New(10)
	cost := randMatrix(src, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Assign(cost)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

// TestAssemble: the points of SB matched to XB are replaced by XA; the
// rest keep SB's order and XA follows. With XB empty nothing is dropped.
func TestAssemble(t *testing.T) {
	space := metric.Grid(100, 1, metric.L1)
	sb := metric.PointSet{{10}, {50}, {90}, {30}}
	xa := metric.PointSet{{60}, {70}}
	xb := metric.PointSet{{88}, {29}}
	want := metric.PointSet{{10}, {50}, {60}, {70}}
	got := Assemble(space, sb, xa, xb)
	if len(got) != len(want) {
		t.Fatalf("Assemble = %v, want %v", got, want)
	}
	for i := range want {
		if space.Distance(got[i], want[i]) != 0 {
			t.Fatalf("Assemble = %v, want %v", got, want)
		}
	}
	got[0][0] = 11
	if sb[0][0] != 10 {
		t.Fatal("Assemble's output aliases SB")
	}
	if got := Assemble(space, sb, xa, nil); len(got) != len(sb)+len(xa) {
		t.Fatalf("Assemble with no XB = %v", got)
	}
}
