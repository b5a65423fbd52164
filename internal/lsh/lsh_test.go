package lsh

import (
	"math"
	"sync"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
)

func TestParamsRho(t *testing.T) {
	p := Params{R1: 1, R2: 10, P1: 0.9, P2: 0.1}
	want := math.Log(0.9) / math.Log(0.1)
	if got := p.Rho(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Rho = %v, want %v", got, want)
	}
}

func TestParamsValidate(t *testing.T) {
	good := Params{R1: 1, R2: 2, P1: 0.9, P2: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{R1: 2, R2: 1, P1: 0.9, P2: 0.5},
		{R1: 1, R2: 2, P1: 0.5, P2: 0.9},
		{R1: 1, R2: 2, P1: 1.5, P2: 0.5},
		{R1: 1, R2: 2, P1: 0.9, P2: -0.1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("invalid params %+v accepted", p)
		}
	}
}

func TestMLSHValidate(t *testing.T) {
	space := metric.HammingCube(16)
	m := HammingMLSH(space, 32)
	if err := m.Validate(); err != nil {
		t.Errorf("HammingMLSH invalid: %v", err)
	}
	bad := []MLSH{
		{Family: nil, R: 1, P: 0.5, Alpha: 0.5},
		{Family: m.Family, R: 0, P: 0.5, Alpha: 0.5},
		{Family: m.Family, R: 1, P: 1.5, Alpha: 0.5},
		{Family: m.Family, R: 1, P: 0.5, Alpha: 0},
	}
	for i, mm := range bad {
		if err := mm.Validate(); err == nil {
			t.Errorf("bad MLSH %d accepted", i)
		}
	}
}

// collisionAt measures empirical collision probability for two points at
// the given Hamming distance.
func hammingPair(d, dist int) (metric.Point, metric.Point) {
	a := make(metric.Point, d)
	b := make(metric.Point, d)
	for i := 0; i < dist; i++ {
		b[i] = 1
	}
	return a, b
}

// TestCoordSamplingExactCollision checks the exact collision law
// Pr[h(x)=h(y)] = 1 − f/w that underlies Lemma 2.3.
func TestCoordSamplingExactCollision(t *testing.T) {
	const d = 64
	space := metric.HammingCube(d)
	for _, w := range []float64{64, 128, 256} {
		fam := NewCoordSampling(space, w)
		for _, dist := range []int{0, 1, 8, 32, 64} {
			a, b := hammingPair(d, dist)
			got := EstimateCollision(fam, a, b, 40000, 7)
			want := 1 - float64(dist)/w
			if math.Abs(got-want) > 0.012 {
				t.Errorf("w=%v dist=%d: collision %v, want %v", w, dist, got, want)
			}
		}
	}
}

// TestHammingMLSHSandwich verifies Definition 2.2 empirically for the
// family of Lemma 2.3: p^f ≤ Pr[collision] ≤ p^(αf) for f ≤ r.
func TestHammingMLSHSandwich(t *testing.T) {
	const d = 64
	space := metric.HammingCube(d)
	m := HammingMLSH(space, 128)
	for _, dist := range []int{1, 4, 16, 48, 96} {
		if float64(dist) > float64(d) { // can't realize distance beyond d
			continue
		}
		if float64(dist) > m.R {
			continue
		}
		a, b := hammingPair(d, dist)
		got := EstimateCollision(m.Family, a, b, 60000, 11)
		lower := math.Pow(m.P, float64(dist))
		upper := math.Pow(m.P, m.Alpha*float64(dist))
		const slack = 0.012
		if got < lower-slack || got > upper+slack {
			t.Errorf("dist=%d: collision %v outside [%v, %v]", dist, got, lower, upper)
		}
	}
}

func TestCoordSamplingPanics(t *testing.T) {
	l2 := metric.Grid(10, 4, metric.L2)
	assertPanics(t, "non-Hamming space", func() { NewCoordSampling(l2, 8) })
	assertPanics(t, "w < d", func() { NewCoordSampling(metric.HammingCube(8), 4) })
}

func TestGridL1ExactSelfCollision(t *testing.T) {
	space := metric.Grid(1000, 3, metric.L1)
	fam := NewGridL1(space, 10)
	src := rng.New(3)
	f := fam.Draw(src)
	p := metric.Point{5, 500, 999}
	if f.Hash(p) != f.Hash(p.Clone()) {
		t.Error("equal points hash differently")
	}
}

// TestL1MLSHSandwich verifies the Lemma 2.4 sandwich for the grid family.
func TestL1MLSHSandwich(t *testing.T) {
	space := metric.Grid(10000, 4, metric.L1)
	w := 200.0
	m := L1MLSH(space, w)
	base := metric.Point{100, 100, 100, 100}
	for _, dist := range []float64{1, 10, 50, 120} {
		if dist > m.R {
			continue
		}
		other := base.Clone()
		other[0] += int32(dist) // all displacement in one coordinate
		got := EstimateCollision(m.Family, base, other, 60000, 13)
		lower := math.Pow(m.P, dist)
		upper := math.Pow(m.P, m.Alpha*dist)
		const slack = 0.012
		if got < lower-slack || got > upper+slack {
			t.Errorf("dist=%v: collision %v outside [%v, %v]", dist, got, lower, upper)
		}
	}
	// Spread displacement across coordinates: bound must still hold.
	other := metric.Point{130, 130, 130, 130} // ℓ1 distance 120
	got := EstimateCollision(m.Family, base, other, 60000, 17)
	lower := math.Pow(m.P, 120)
	upper := math.Pow(m.P, m.Alpha*120)
	if got < lower-0.012 || got > upper+0.012 {
		t.Errorf("spread dist=120: collision %v outside [%v, %v]", got, lower, upper)
	}
}

// TestL2MLSHSandwich verifies the Lemma 2.5 sandwich for the p-stable
// family.
func TestL2MLSHSandwich(t *testing.T) {
	space := metric.Grid(10000, 3, metric.L2)
	w := 300.0
	m := L2MLSH(space, w)
	base := metric.Point{500, 500, 500}
	for _, dist := range []float64{10, 60, 150, 290} {
		if dist > m.R {
			continue
		}
		other := base.Clone()
		other[0] += int32(dist)
		got := EstimateCollision(m.Family, base, other, 60000, 19)
		lower := math.Pow(m.P, dist)
		upper := math.Pow(m.P, m.Alpha*dist)
		const slack = 0.015
		if got < lower-slack || got > upper+slack {
			t.Errorf("dist=%v: collision %v outside [%v, %v]", dist, got, lower, upper)
		}
	}
}

// TestOneSidedGridNoFarCollisions checks p2 = 0: points at distance ≥ r2
// never collide.
func TestOneSidedGridNoFarCollisions(t *testing.T) {
	space := metric.Grid(10000, 2, metric.L2)
	r1, r2 := 5.0, 500.0
	g := NewOneSidedGrid(space, r1, r2, 2)
	a := metric.Point{1000, 1000}
	b := metric.Point{1000 + 360, 1000 + 360} // ℓ2 distance ≈ 509 > r2
	if d := space.Distance(a, b); d < r2 {
		t.Fatalf("test points too close: %v", d)
	}
	if got := EstimateCollision(g, a, b, 20000, 23); got != 0 {
		t.Errorf("far points collided with probability %v, want 0", got)
	}
}

// TestOneSidedGridCloseCollision checks p1 ≥ 1 − ρ̂ for close points.
func TestOneSidedGridCloseCollision(t *testing.T) {
	space := metric.Grid(10000, 2, metric.L2)
	r1, r2 := 5.0, 500.0
	g := NewOneSidedGrid(space, r1, r2, 2)
	if math.Abs(g.RhoHat-(r1*2/r2)) > 1e-12 {
		t.Fatalf("RhoHat = %v", g.RhoHat)
	}
	a := metric.Point{1000, 1000}
	b := metric.Point{1003, 1004} // distance 5 = r1
	got := EstimateCollision(g, a, b, 30000, 29)
	if got < 1-g.RhoHat-0.01 {
		t.Errorf("close collision prob %v < 1−ρ̂ = %v", got, 1-g.RhoHat)
	}
}

func TestOneSidedGridPanics(t *testing.T) {
	space := metric.Grid(100, 2, metric.L2)
	assertPanics(t, "r1 >= r2", func() { NewOneSidedGrid(space, 5, 5, 2) })
	assertPanics(t, "r1 <= 0", func() { NewOneSidedGrid(space, 0, 5, 2) })
}

func TestGridPanics(t *testing.T) {
	space := metric.Grid(100, 2, metric.L1)
	assertPanics(t, "zero width grid", func() { NewGridL1(space, 0) })
	assertPanics(t, "zero width pstable", func() { NewPStableL2(space, 0) })
}

func TestHammingParams(t *testing.T) {
	space := metric.HammingCube(100)
	p := HammingParams(space, 5, 50)
	if p.P1 != 0.95 || p.P2 != 0.5 {
		t.Errorf("params = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGridL1Params(t *testing.T) {
	space := metric.Grid(1000, 4, metric.L1)
	p := GridL1Params(space, 10, 40, 20)
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	// Empirically check both sides of the guarantee.
	fam := NewGridL1(space, 20)
	a := metric.Point{500, 500, 500, 500}
	close := metric.Point{505, 502, 502, 501} // ℓ1 = 10 = r1
	far := metric.Point{510, 510, 510, 510}   // ℓ1 = 40 = r2
	pc := EstimateCollision(fam, a, close, 40000, 31)
	pf := EstimateCollision(fam, a, far, 40000, 37)
	if pc < p.P1-0.01 {
		t.Errorf("close collision %v < p1 %v", pc, p.P1)
	}
	if pf > p.P2+0.01 {
		t.Errorf("far collision %v > p2 %v", pf, p.P2)
	}
}

func TestVectorPrefix(t *testing.T) {
	space := metric.HammingCube(32)
	fam := NewCoordSampling(space, 32)
	v := DrawVector(fam, rng.New(41), 10)
	if v.Len() != 10 {
		t.Fatalf("Len = %d", v.Len())
	}
	p := make(metric.Point, 32)
	full := v.Hash(p)
	if len(full) != 10 {
		t.Fatalf("Hash returned %d values", len(full))
	}
	pre := v.HashPrefix(p, 4)
	for i := range pre {
		if pre[i] != full[i] {
			t.Errorf("prefix value %d differs", i)
		}
	}
	dst := make([]uint64, 10)
	into := v.HashPrefixInto(dst, p, 7)
	if len(into) != 7 {
		t.Fatalf("HashPrefixInto returned %d values", len(into))
	}
	for i := range into {
		if into[i] != full[i] {
			t.Errorf("into value %d differs", i)
		}
	}
	assertPanics(t, "prefix too long", func() { v.HashPrefix(p, 11) })
}

func TestVectorSharedSeedAgreement(t *testing.T) {
	// The whole point of public coins: two parties drawing from the same
	// seed must produce identical functions.
	space := metric.Grid(1000, 3, metric.L2)
	fam := NewPStableL2(space, 50)
	va := DrawVector(fam, rng.New(99), 20)
	vb := DrawVector(fam, rng.New(99), 20)
	src := rng.New(123)
	for trial := 0; trial < 50; trial++ {
		p := metric.Point{int32(src.Intn(1000)), int32(src.Intn(1000)), int32(src.Intn(1000))}
		ha := va.Hash(p)
		hb := vb.Hash(p)
		for i := range ha {
			if ha[i] != hb[i] {
				t.Fatalf("shared-seed vectors disagree at func %d", i)
			}
		}
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

func BenchmarkCoordSampleHash(b *testing.B) {
	space := metric.HammingCube(256)
	v := DrawVector(NewCoordSampling(space, 512), rng.New(1), 64)
	p := make(metric.Point, 256)
	dst := make([]uint64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.HashPrefixInto(dst, p, 64)
	}
}

func BenchmarkPStableHash(b *testing.B) {
	space := metric.Grid(1<<20, 16, metric.L2)
	v := DrawVector(NewPStableL2(space, 100), rng.New(1), 32)
	p := make(metric.Point, 16)
	dst := make([]uint64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.HashPrefixInto(dst, p, 32)
	}
}

// TestVectorConcurrentEval locks in the documented contract that a
// drawn Vector is safe for concurrent evaluation: the sharded sketch
// builders evaluate one shared Vector from many goroutines. Run under
// -race this is a real detector, not just a determinism check.
func TestVectorConcurrentEval(t *testing.T) {
	space := metric.HammingCube(64)
	fam := NewCoordSampling(space, 64)
	vec := DrawVector(fam, rng.New(42), 128)
	src := rng.New(43)
	pts := make([]metric.Point, 64)
	for i := range pts {
		pts[i] = workloadPoint(space, src)
	}
	want := make([][]uint64, len(pts))
	for i, p := range pts {
		want[i] = vec.Hash(p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := make([]uint64, vec.Len())
			for i, p := range pts {
				got := vec.HashPrefixInto(scratch, p, vec.Len())
				for j := range got {
					if got[j] != want[i][j] {
						t.Errorf("concurrent eval diverged at point %d fn %d", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func workloadPoint(space metric.Space, src *rng.Source) metric.Point {
	p := make(metric.Point, space.Dim)
	for i := range p {
		p[i] = int32(src.Uint64n(uint64(space.Delta) + 1))
	}
	return p
}
