package quadtree

import (
	"math"
	"sort"
	"testing"

	"repro/internal/emd"
	"repro/internal/matching"
	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestParamsValidate(t *testing.T) {
	p := Params{Space: metric.Grid(255, 2, metric.L1), N: 10, K: 2}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.K = 11
	if err := p.Validate(); err == nil {
		t.Error("k > n accepted")
	}
}

func TestLevelWidthsHalve(t *testing.T) {
	ws := levelWidths(metric.Grid(255, 2, metric.L1))
	if len(ws) < 8 {
		t.Fatalf("only %d levels for Delta=255", len(ws))
	}
	for i := 1; i < len(ws); i++ {
		if math.Abs(ws[i]*2-ws[i-1]) > 1e-9 {
			t.Fatalf("widths not halving: %v", ws)
		}
	}
	if ws[len(ws)-1] < 1 {
		t.Fatalf("finest width %v < 1", ws[len(ws)-1])
	}
}

func TestCellCenterWithinCell(t *testing.T) {
	space := metric.Grid(1023, 3, metric.L1)
	src := rngNew(5)
	g := newGrid(space, 64, src)
	for i := 0; i < 200; i++ {
		p := workload.RandomPoint(space, src)
		_, center := g.cellAndCenter(p)
		if !space.Contains(center) {
			t.Fatalf("center %v outside space", center)
		}
		// Distance from a point to its (unclamped) cell center is at
		// most w/2 per coordinate, so ℓ1 ≤ d·w/2; clamping only helps.
		if d := space.Distance(p, center); d > 3*64/2+1 {
			t.Fatalf("point %v to center %v distance %v", p, center, d)
		}
	}
}

func TestIdenticalSetsCancel(t *testing.T) {
	space := metric.Grid(1023, 2, metric.L1)
	src := rngNew(7)
	sb := workload.RandomSet(space, 30, src)
	p := Params{Space: space, N: 30, K: 3, Seed: 9}
	res, err := Reconcile(p, sb.Clone(), sb)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed {
		t.Fatal("failed on identical sets")
	}
	// Finest level must decode with zero difference.
	if res.Level != res.Levels {
		t.Errorf("identical sets decoded at level %d of %d", res.Level, res.Levels)
	}
	if got := matching.EMD(space, sb, res.SPrime); got != 0 {
		t.Errorf("EMD = %v on identical sets", got)
	}
}

func TestBaselineReconciles(t *testing.T) {
	space := metric.Grid(4095, 2, metric.L1)
	const n, k = 40, 4
	improved := 0
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		inst := workload.NewEMDInstance(space, n, k, 20, uint64(trial)+50)
		p := Params{Space: space, N: n, K: k, Seed: uint64(trial) + 3}
		res, err := Reconcile(p, inst.SA, inst.SB)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed {
			continue
		}
		if len(res.SPrime) != n {
			t.Fatalf("|S'B| = %d", len(res.SPrime))
		}
		before := matching.EMD(space, inst.SA, inst.SB)
		after := matching.EMD(space, inst.SA, res.SPrime)
		if after < before {
			improved++
		}
	}
	if improved < trials/2 {
		t.Errorf("baseline improved EMD in only %d/%d trials", improved, trials)
	}
}

// TestQuantizationGrowsWithDimension captures the baseline's weakness
// (the reason the paper exists): with everything else fixed, recovered
// points' quantization error grows with d.
func TestQuantizationGrowsWithDimension(t *testing.T) {
	errAtDim := func(d int) float64 {
		space := metric.Grid(255, d, metric.L1)
		const n, k = 24, 3
		var total float64
		cnt := 0
		for trial := 0; trial < 8; trial++ {
			inst := workload.NewEMDInstance(space, n, k, 0, uint64(trial)+90)
			p := Params{Space: space, N: n, K: k, Seed: uint64(trial) + 7}
			res, err := Reconcile(p, inst.SA, inst.SB)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				continue
			}
			total += matching.EMD(space, inst.SA, res.SPrime)
			cnt++
		}
		if cnt == 0 {
			t.Fatal("all trials failed")
		}
		return total / float64(cnt)
	}
	e2 := errAtDim(2)
	e16 := errAtDim(16)
	if e16 < e2*2 {
		t.Errorf("quantization error did not grow with d: d=2 → %v, d=16 → %v", e2, e16)
	}
}

// TestAlgorithm1BeatsQuadtreeInHighDimension is §1's comparison with [7]:
// the quadtree is an O(d) approximation and Algorithm 1 an O(log n) one,
// so at d = 32 Algorithm 1's median EMD ratio EMD(SA, S′B)/EMD_k must be
// the lower (measured ≈ 1.05 against ≈ 10). A failed run scores +Inf.
func TestAlgorithm1BeatsQuadtreeInHighDimension(t *testing.T) {
	space := metric.Grid(255, 32, metric.L1)
	const n, k, trials = 32, 3, 5
	var ours, qt []float64
	for trial := 0; trial < trials; trial++ {
		seed := uint64(trial) + 32001
		inst := workload.NewEMDInstance(space, n, k, 4, seed)
		emdK := math.Max(matching.EMDk(space, inst.SA, inst.SB, k), 1)
		ratio := func(failed bool, sPrime metric.PointSet) float64 {
			if failed {
				return math.Inf(1)
			}
			return matching.EMD(space, inst.SA, sPrime) / emdK
		}

		p := emd.DefaultParams(space, n, k, seed+7)
		p.D1 = math.Max(1, emdK/4)
		p.D2 = math.Max(emdK*4, p.D1*2)
		res, err := emd.Reconcile(p, inst.SA, inst.SB)
		if err != nil {
			t.Fatal(err)
		}
		ours = append(ours, ratio(res.Failed, res.SPrime))

		qres, err := Reconcile(Params{Space: space, N: n, K: k, Seed: seed + 11}, inst.SA, inst.SB)
		if err != nil {
			t.Fatal(err)
		}
		qt = append(qt, ratio(qres.Failed, qres.SPrime))
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	if mo, mq := median(ours), median(qt); mo >= mq {
		t.Errorf("d=32: Algorithm 1 median EMD ratio %v not below the quadtree's %v", mo, mq)
	}
}

func TestSizeMismatch(t *testing.T) {
	space := metric.Grid(255, 2, metric.L1)
	p := Params{Space: space, N: 5, K: 1, Seed: 1}
	src := rngNew(3)
	if _, err := Reconcile(p, workload.RandomSet(space, 5, src), workload.RandomSet(space, 4, src)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func rngNew(seed uint64) *rng.Source { return rng.New(seed) }

// TestQuadtreeWireBytesPinned pins the baseline's message at two shapes
// to FNV-1a fingerprints captured once, as emd's
// TestSketchWireBytesPinned does for Algorithm 1: any change to the
// grids, the occurrence keys, the tables or the level codec fails it.
func TestQuadtreeWireBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Params
		want uint64
	}{
		{"l1-d8", Params{Space: metric.Grid(255, 8, metric.L1), N: 64, K: 4, Seed: 3}, 0x3ebda7cdb352ee3d},
		{"l2-d16", Params{Space: metric.Grid(4095, 16, metric.L2), N: 128, K: 8, Seed: 5}, 0xa2b969eb967ae555},
	} {
		pl, err := newPlan(c.p)
		if err != nil {
			t.Fatal(err)
		}
		msg := pl.buildMessage(workload.RandomSet(c.p.Space, c.p.N, rngNew(c.p.Seed^0x5eed)))
		if got := emd.FingerprintMessage(msg); got != c.want {
			t.Errorf("%s: wire fingerprint %#x, pinned %#x (%d bytes)", c.name, got, c.want, len(msg))
		}
	}
}
