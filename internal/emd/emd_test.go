package emd

import (
	"math"
	"testing"

	"repro/internal/hashx"
	"repro/internal/lsh"
	"repro/internal/matching"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestParamsValidate(t *testing.T) {
	space := metric.HammingCube(32)
	p := DefaultParams(space, 16, 2, 1)
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.K = p.N + 1 },
		func(p *Params) { p.N = 0 },
		func(p *Params) { p.D1 = 0.5 },
		func(p *Params) { p.D2 = p.D1 / 2 },
		func(p *Params) { p.Q = 2 },
	}
	for i, mod := range bad {
		pp := DefaultParams(space, 16, 2, 1)
		mod(&pp)
		if err := pp.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestPlanStructure(t *testing.T) {
	space := metric.HammingCube(64)
	p := DefaultParams(space, 32, 4, 7)
	p.D1, p.D2 = 4, 256
	pl, err := newPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	// t = log2(D2/D1) + 1 = 7.
	if pl.levels != 7 {
		t.Errorf("levels = %d, want 7", pl.levels)
	}
	// Prefixes are nondecreasing, start >= 1, end == s.
	for i := 1; i < pl.levels; i++ {
		if pl.prefix[i] < pl.prefix[i-1] {
			t.Errorf("prefix not monotone: %v", pl.prefix)
		}
	}
	if pl.prefix[0] < 1 || pl.prefix[pl.levels-1] != pl.s {
		t.Errorf("prefix endpoints: %v (s=%d)", pl.prefix, pl.s)
	}
	// The paper's m = 4q²k.
	if got := pl.cfgs[0].Cells; got != 4*3*3*4 {
		t.Errorf("cells = %d, want %d", got, 4*3*3*4)
	}
}

func TestPlanSharedBetweenParties(t *testing.T) {
	space := metric.Grid(1023, 2, metric.L2)
	p := DefaultParams(space, 16, 2, 99)
	p.D1, p.D2 = 8, 64
	pa, err := newPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := newPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	pt := metric.Point{17, 900}
	ka := pa.keysInto(make([]uint64, pa.levels), pt, make([]uint64, pa.kern.Active()))
	kb := pb.keysInto(make([]uint64, pb.levels), pt, make([]uint64, pb.kern.Active()))
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("parties disagree on key at level %d", i)
		}
	}
}

// TestNewPlanAllocs: a plan at the benchmark's emd-oneshot shape (s = 97
// p-stable draws at d = 16) keeps its draws in one matrix, so building
// one costs a handful of allocations, not two per draw. Sessions that
// miss the plan cache pay this per op.
func TestNewPlanAllocs(t *testing.T) {
	p := Params{Space: metric.Grid(4095, 16, metric.L2), N: 512, K: 8, D1: 512, D2: 16384, Seed: 5}
	n := testing.AllocsPerRun(20, func() {
		if _, err := newPlan(p); err != nil {
			t.Fatal(err)
		}
	})
	if n > 16 {
		t.Fatalf("newPlan allocates %v times, want <= 16", n)
	}
}

// denseKeys is the reference keying of Algorithm 1: every one of the s
// MLSH draws evaluated on the point (lsh.Vector), then every level prefix
// compressed by one polynomial sweep (hashx.KeyHasher.HashPrefixes),
// drawn from the same public-coin streams newPlan splits off.
type denseKeys struct {
	vec *lsh.Vector
	kh  hashx.KeyHasher
}

func newDenseKeys(t *testing.T, pl *plan) denseKeys {
	t.Helper()
	m, err := pl.params.family()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(pl.params.Seed)
	famSrc := src.Split()
	keySrc := src.Split()
	return denseKeys{
		vec: lsh.DrawVector(m.Family, famSrc, pl.s),
		kh:  hashx.NewKeyHasher(keySrc, pl.params.KeyBits),
	}
}

func (r denseKeys) keys(pl *plan, pt metric.Point) []uint64 {
	vals := r.vec.HashPrefixInto(make([]uint64, pl.s), pt, pl.s)
	return r.kh.HashPrefixes(make([]uint64, pl.levels), vals, pl.prefix)
}

// TestSparseKeysMatchDense: the plan's keys, which evaluate only the
// draws that read the point and fold the constant ones in at plan build,
// equal the dense reference for every point, level and shape — including
// the benchmark's Hamming shapes (a handful of active draws among tens of
// thousands), Hamming with w = d (every draw active), ℓ1 and ℓ2.
func TestSparseKeysMatchDense(t *testing.T) {
	shapes := []struct {
		name    string
		p       Params
		noConst bool // every draw reads the point
	}{
		{"churn-serve", DefaultParams(metric.HammingCube(64), 256, 4, 0), false},
		{"mesh-churn", DefaultParams(metric.HammingCube(32), 256, 4, 0), false},
		{"hamming-w=d", Params{Space: metric.HammingCube(64), N: 64, K: 32, D1: 1, D2: 32}, true},
		{"l1-grid", Params{Space: metric.Grid(255, 4, metric.L1), N: 32, K: 4, D1: 4, D2: 256}, true},
		{"l2-pstable", Params{Space: metric.Grid(4095, 16, metric.L2), N: 512, K: 8, D1: 512, D2: 16384}, true},
	}
	const points = 300
	for _, sh := range shapes {
		for _, seed := range []uint64{1, 2, 3} {
			p := sh.p
			p.Seed = seed
			pl, err := newPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			if sh.noConst && pl.kern.Active() != pl.s {
				t.Fatalf("%s: %d of %d draws active, want all", sh.name, pl.kern.Active(), pl.s)
			}
			ref := newDenseKeys(t, pl)
			src := rng.New(seed + 100)
			dst := make([]uint64, pl.levels)
			scratch := make([]uint64, pl.kern.Active())
			for i := 0; i < points; i++ {
				pt := randomPoint(pl.params.Space, src)
				want := ref.keys(pl, pt)
				got := pl.keysInto(dst, pt, scratch)
				if len(got) != len(want) {
					t.Fatalf("%s seed %d: %d keys, want %d", sh.name, seed, len(got), len(want))
				}
				for l := range want {
					if got[l] != want[l] {
						t.Fatalf("%s seed %d point %d level %d: key %#x, dense %#x", sh.name, seed, i, l, got[l], want[l])
					}
				}
			}
		}
	}
}

// TestSparseKeysConstantLevels: at the churn-serve shape the coarse
// levels hash only constant draws, so every point's key there is the
// folded constant alone — the dense key of the all-zero vector.
func TestSparseKeysConstantLevels(t *testing.T) {
	pl, err := newPlan(DefaultParams(metric.HammingCube(64), 256, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	ref := newDenseKeys(t, pl)
	// A draw is active iff it tells the all-zero and all-one points apart.
	zeros, ones := make(metric.Point, 64), make(metric.Point, 64)
	for i := range ones {
		ones[i] = 1
	}
	v0 := ref.vec.Hash(zeros)
	v1 := ref.vec.Hash(ones)
	first := 0
	for first < pl.s && v0[first] == v1[first] {
		first++
	}
	coarse := 0
	for coarse < pl.levels && pl.prefix[coarse] <= first {
		coarse++
	}
	if coarse == 0 {
		t.Fatalf("first active draw %d lies in level 0 (prefix %v); pick another seed", first, pl.prefix)
	}
	src := rng.New(6)
	dst := make([]uint64, pl.levels)
	scratch := make([]uint64, pl.kern.Active())
	for i := 0; i < 300; i++ {
		keys := pl.keysInto(dst, randomPoint(pl.params.Space, src), scratch)
		for l := 0; l < coarse; l++ {
			if want := ref.kh.Hash(make([]uint64, pl.prefix[l])); keys[l] != want {
				t.Fatalf("point %d level %d (prefix %d, first active draw %d): key %#x, want constant %#x",
					i, l, pl.prefix[l], first, keys[l], want)
			}
		}
	}
}

func TestIdenticalSetsReconcileToNoChange(t *testing.T) {
	space := metric.HammingCube(64)
	inst := workload.NewEMDInstance(space, 24, 0, 0, 3)
	// SA == noiseless copies: make them literally equal.
	sa := inst.SB.Clone()
	p := DefaultParams(space, 24, 2, 5)
	p.D1, p.D2 = 1, 64
	res, err := Reconcile(p, sa, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("protocol failed on identical sets")
	}
	if len(res.SPrime) != 24 {
		t.Fatalf("|S'B| = %d, want 24", len(res.SPrime))
	}
	if got := matching.EMD(space, sa, res.SPrime); got != 0 {
		t.Errorf("EMD(SA, S'B) = %v on identical sets", got)
	}
}

// TestTheorem34Hamming is the core correctness check: on planted noisy
// instances the protocol's output satisfies the Theorem 3.4 guarantee
// EMD(SA, S′B) ≤ O(log n)·EMD_k(SA, SB) with at least the promised
// probability, and |S′B| = n.
func TestTheorem34Hamming(t *testing.T) {
	space := metric.HammingCube(128)
	const n, k = 48, 4
	trials := 12
	okCount := 0
	for trial := 0; trial < trials; trial++ {
		inst := workload.NewEMDInstance(space, n, k, 2, uint64(trial)+10)
		emdK := matching.EMDk(space, inst.SA, inst.SB, k)
		p := DefaultParams(space, n, k, uint64(trial)*7+1)
		p.D1 = math.Max(1, emdK/4)
		p.D2 = math.Max(emdK*4, p.D1*2)
		res, err := Reconcile(p, inst.SA, inst.SB)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			continue
		}
		if len(res.SPrime) != n {
			t.Fatalf("trial %d: |S'B| = %d, want %d", trial, len(res.SPrime), n)
		}
		got := matching.EMD(space, inst.SA, res.SPrime)
		bound := 12 * math.Log(float64(n)) * math.Max(emdK, 1)
		if got <= bound {
			okCount++
		} else {
			t.Logf("trial %d: EMD = %v, EMD_k = %v, bound = %v", trial, got, emdK, bound)
		}
	}
	// Theorem 3.4 promises success with probability ≥ 5/8; demand at
	// least half the trials to keep the test robust.
	if okCount < trials/2 {
		t.Errorf("only %d/%d trials within the O(log n) bound", okCount, trials)
	}
}

// TestImprovementOverNoReconciliation checks the protocol actually helps:
// S′B is much closer to SA than SB was, on instances with planted
// outliers.
func TestImprovementOverNoReconciliation(t *testing.T) {
	space := metric.HammingCube(128)
	const n, k = 40, 4
	improved := 0
	const trials = 8
	for trial := 0; trial < trials; trial++ {
		inst := workload.NewEMDInstance(space, n, k, 1, uint64(trial)+77)
		before := matching.EMD(space, inst.SA, inst.SB)
		emdK := matching.EMDk(space, inst.SA, inst.SB, k)
		p := DefaultParams(space, n, k, uint64(trial)+13)
		p.D1 = math.Max(1, emdK/4)
		p.D2 = math.Max(emdK*4, p.D1*2)
		res, err := Reconcile(p, inst.SA, inst.SB)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			continue
		}
		after := matching.EMD(space, inst.SA, res.SPrime)
		if after < before {
			improved++
		}
	}
	if improved < trials/2 {
		t.Errorf("EMD improved in only %d/%d trials", improved, trials)
	}
}

func TestReconcileL2(t *testing.T) {
	space := metric.Grid(4095, 3, metric.L2)
	const n, k = 32, 3
	inst := workload.NewEMDInstance(space, n, k, 8, 21)
	emdK := matching.EMDk(space, inst.SA, inst.SB, k)
	p := DefaultParams(space, n, k, 31)
	p.D1 = math.Max(1, emdK/4)
	p.D2 = math.Max(emdK*4, p.D1*2)
	res, err := Reconcile(p, inst.SA, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed {
		if len(res.SPrime) != n {
			t.Fatalf("|S'B| = %d", len(res.SPrime))
		}
		if got := matching.EMD(space, inst.SA, res.SPrime); got > 40*math.Max(emdK, 1) {
			t.Errorf("EMD after = %v vs EMD_k = %v", got, emdK)
		}
	}
}

func TestReconcileScaled(t *testing.T) {
	space := metric.Grid(4095, 2, metric.L2)
	const n, k = 32, 3
	inst := workload.NewEMDInstance(space, n, k, 6, 55)
	p := DefaultParams(space, n, k, 77)
	// No prior knowledge: wide range, the scaled strategy must cope.
	p.D1, p.D2 = 1, float64(n)*space.Diameter()
	res, err := ReconcileScaled(p, inst.SA, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Intervals < 2 {
		t.Fatalf("intervals = %d", res.Intervals)
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (parallel composition)", res.Stats.Rounds)
	}
	if res.Failed {
		t.Fatal("scaled protocol failed outright")
	}
	if len(res.SPrime) != n {
		t.Fatalf("|S'B| = %d", len(res.SPrime))
	}
	emdK := matching.EMDk(space, inst.SA, inst.SB, k)
	after := matching.EMD(space, inst.SA, res.SPrime)
	before := matching.EMD(space, inst.SA, inst.SB)
	t.Logf("before=%v after=%v EMD_k=%v interval=%d", before, after, emdK, res.Interval)
	if after > before {
		t.Errorf("scaled reconciliation made things worse: %v -> %v", before, after)
	}
}

func TestSizeMismatchRejected(t *testing.T) {
	space := metric.HammingCube(16)
	p := DefaultParams(space, 4, 1, 1)
	src := rng.New(9)
	sa := workload.RandomSet(space, 4, src)
	sb := workload.RandomSet(space, 3, src)
	if _, err := Reconcile(p, sa, sb); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestCommunicationScalesWithKNotN(t *testing.T) {
	// Fix everything but n; the message size must grow only
	// logarithmically in n (through t = log(D2/D1) with D2 ∝ n and key
	// material), not linearly.
	space := metric.HammingCube(64)
	bitsAt := func(n int) int64 {
		inst := workload.NewEMDInstance(space, n, 2, 1, uint64(n))
		p := DefaultParams(space, n, 2, uint64(n)+5)
		p.D1 = math.Max(1, float64(n)/8)
		p.D2 = float64(n) * 2
		res, err := Reconcile(p, inst.SA, inst.SB)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.TotalBits()
	}
	b32 := bitsAt(32)
	b128 := bitsAt(128)
	// 4x the points must cost well under 2x the bits.
	if b128 > b32*2 {
		t.Errorf("comm grew from %d to %d bits for 4x n", b32, b128)
	}
}

func TestNaiveBits(t *testing.T) {
	space := metric.Grid(255, 4, metric.L2)
	if got := NaiveBits(space, 100); got != 100*4*8 {
		t.Errorf("NaiveBits = %d", got)
	}
}
