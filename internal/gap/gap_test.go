package gap

import (
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestParamsValidate(t *testing.T) {
	good := Params{Space: metric.HammingCube(256), N: 10, R1: 2, R2: 32}
	good.ApplyDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Space: metric.HammingCube(256), N: 0, R1: 2, R2: 32},
		{Space: metric.HammingCube(256), N: 10, R1: 32, R2: 2},
		{Space: metric.HammingCube(256), N: 10, R1: 0, R2: 2},
		{Space: metric.Space{}, N: 10, R1: 1, R2: 2},
	}
	for i, p := range bad {
		p.ApplyDefaults()
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestDeriveRejectsTightHamming(t *testing.T) {
	// r2 > d/2 breaks the p2 >= 1/2 assumption of §4.1.
	p := Params{Space: metric.HammingCube(64), N: 10, R1: 2, R2: 40}
	p.ApplyDefaults()
	if _, _, err := p.derive(); err == nil {
		t.Error("r2 > d/2 accepted for coordinate sampling")
	}
}

func TestDeriveRejectsL2(t *testing.T) {
	p := Params{Space: metric.Grid(100, 3, metric.L2), N: 10, R1: 1, R2: 50}
	p.ApplyDefaults()
	if _, _, err := p.derive(); err == nil {
		t.Error("general protocol accepted ℓ2 (should direct to one-sided)")
	}
}

// TestGapGuaranteeHamming is the core Definition 4.1 check: every planted
// far point must arrive at Bob, so every point of SA ends within r2 of
// S′B.
func TestGapGuaranteeHamming(t *testing.T) {
	space := metric.HammingCube(512)
	const n, k = 60, 5
	for trial := 0; trial < 5; trial++ {
		inst, err := workload.NewGapInstance(space, n, k, 2, 8, 128, uint64(trial)+1)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Space: space, N: n + k, R1: inst.R1, R2: inst.R2, Seed: uint64(trial) + 100}
		res, err := Reconcile(p, inst.SA, inst.SB)
		if err != nil {
			t.Fatal(err)
		}
		// The guarantee: ∀a ∈ SA ∃b ∈ S′B with f(a,b) ≤ r2.
		for _, a := range inst.SA {
			if d, _ := res.SPrime.MinDistanceTo(space, a); d > inst.R2 {
				t.Errorf("trial %d: point %v left uncovered at distance %v", trial, a, d)
			}
		}
		// All planted far points must literally be in S′B.
		for _, f := range inst.Far {
			found := false
			for _, sp := range res.SPrime {
				if sp.Equal(f) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("trial %d: planted far point %v not transferred", trial, f)
			}
		}
	}
}

// TestGapDoesNotFloodCloseElements checks the communication side: with a
// comfortable gap, the number of transmitted elements stays near k, not n,
// and widening the gap lowers total communication, the ρ-dependence of
// Theorem 4.2's (k + ρn)·polylog term.
func TestGapDoesNotFloodCloseElements(t *testing.T) {
	space := metric.HammingCube(512)
	const n, k = 80, 4
	inst, err := workload.NewGapInstance(space, n, k, 0, 4, 160, 17)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Space: space, N: n + k, R1: inst.R1, R2: inst.R2, Seed: 55}
	res, err := Reconcile(p, inst.SA, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TA) > 4*k {
		t.Errorf("transmitted %d elements for k=%d far points", len(res.TA), k)
	}
	if len(res.TA) < k {
		t.Errorf("transmitted %d elements, fewer than k=%d planted", len(res.TA), k)
	}

	// r2/r1 = 4 → 16 at d = 2048. Single runs vary by ±10% (at seed 1
	// the order flips), so compare totals over four instances.
	space = metric.HammingCube(2048)
	var bits [2]int64
	for i, ratio := range []float64{4, 16} {
		for seed := uint64(1); seed <= 4; seed++ {
			inst, err := workload.NewGapInstance(space, 64, 4, 1, 8, 8*ratio, seed)
			if err != nil {
				t.Fatal(err)
			}
			p := Params{Space: space, N: 68, R1: inst.R1, R2: inst.R2, Seed: seed + 7}
			res, err := Reconcile(p, inst.SA, inst.SB)
			if err != nil {
				t.Fatal(err)
			}
			bits[i] += res.Stats.TotalBits()
		}
	}
	if bits[1] >= bits[0] {
		t.Errorf("%d bits over four runs at r2/r1=16, not below %d at r2/r1=4", bits[1], bits[0])
	}
}

func TestGapL1Grid(t *testing.T) {
	space := metric.Grid(1<<20, 4, metric.L1)
	const n, k = 50, 4
	inst, err := workload.NewGapInstance(space, n, k, 1, 200, 40000, 23)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Space: space, N: n + k, R1: inst.R1, R2: inst.R2, Seed: 77}
	res, err := Reconcile(p, inst.SA, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range inst.SA {
		if d, _ := res.SPrime.MinDistanceTo(space, a); d > inst.R2 {
			t.Errorf("point %v uncovered at distance %v", a, d)
		}
	}
}

func TestOneSidedL2(t *testing.T) {
	space := metric.Grid(1<<20, 2, metric.L2)
	const n, k = 50, 4
	// Theorem 4.5 needs r2 > r1·d: use r1=50, r2=30000, d=2.
	inst, err := workload.NewGapInstance(space, n, k, 1, 50, 30000, 29)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Space: space, N: n + k, R1: inst.R1, R2: inst.R2, Seed: 99}
	res, err := ReconcileOneSided(p, 2, inst.SA, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range inst.SA {
		if d, _ := res.SPrime.MinDistanceTo(space, a); d > inst.R2 {
			t.Errorf("point %v uncovered at distance %v", a, d)
		}
	}
	// One-sided: close elements never misclassified far unless all h
	// entries miss, so the transfer stays near k.
	if len(res.TA) > 4*k {
		t.Errorf("one-sided transmitted %d elements for k=%d", len(res.TA), k)
	}
}

// TestOneSidedShortensKeysInLowDimension is Theorem 4.5's point: in low
// dimension with r2 ≫ r1·d, the p2 = 0 family needs only
// h = Θ(log n / log(1/ρ̂)) entries where the general protocol uses
// Θ(log n), so keys are shorter and total communication falls, with the
// same guarantee.
func TestOneSidedShortensKeysInLowDimension(t *testing.T) {
	space := metric.Grid(1<<20, 2, metric.L1)
	const n, k = 48, 3
	for seed := uint64(1); seed <= 2; seed++ {
		inst, err := workload.NewGapInstance(space, n, k, 1, 50, 50000, seed)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Space: space, N: n + k, R1: inst.R1, R2: inst.R2, Seed: seed + 3}
		general, err := Reconcile(p, inst.SA, inst.SB)
		if err != nil {
			t.Fatal(err)
		}
		oneSided, err := ReconcileOneSided(p, 1, inst.SA, inst.SB)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []Result{general, oneSided} {
			for _, a := range inst.SA {
				if d, _ := res.SPrime.MinDistanceTo(space, a); d > inst.R2 {
					t.Errorf("seed %d, h=%d: point %v uncovered at distance %v", seed, res.H, a, d)
				}
			}
		}
		if oneSided.H >= general.H {
			t.Errorf("seed %d: one-sided h=%d not below general h=%d", seed, oneSided.H, general.H)
		}
		if ob, gb := oneSided.Stats.TotalBits(), general.Stats.TotalBits(); ob >= gb {
			t.Errorf("seed %d: one-sided sent %d bits, general %d", seed, ob, gb)
		}
	}
}

func TestOneSidedRejectsTinyGap(t *testing.T) {
	space := metric.Grid(1000, 8, metric.L2)
	p := Params{Space: space, N: 10, R1: 10, R2: 20, Seed: 1} // ρ̂ = 4 > 1
	if _, err := ReconcileOneSided(p, 2, nil, nil); err == nil {
		t.Error("rho-hat >= 1 accepted")
	}
}

func TestRoundsMatchTheorem42(t *testing.T) {
	space := metric.HammingCube(256)
	inst, err := workload.NewGapInstance(space, 30, 2, 0, 4, 64, 31)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Space: space, N: 32, R1: inst.R1, R2: inst.R2, Seed: 3}
	res, err := Reconcile(p, inst.SA, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	// 3 rounds of key reconciliation + 1 element round (absent retries).
	if res.Stats.Rounds != 4 {
		t.Errorf("rounds = %d, want 4", res.Stats.Rounds)
	}
}

// TestTheorem46IndexInstance runs the Appendix F instance behind Theorem
// 4.6. Alice holds codeword j with her index bit x_j appended, for
// j < 48; Bob holds codewords 0..48 except i, each with 0 appended. With
// codewords ≥ 64 apart and R1 = 1, R2 = 63, every Alice point but the i-th
// is close to Bob's set and the i-th is far from all of it, so the
// 4-round protocol must hand Bob codeword i together with x_i. The other
// half of the theorem, that every one-round protocol of O(n) bits fails
// with probability ≥ 1/3, quantifies over all protocols and so is not
// something a test of this one can check.
func TestTheorem46IndexInstance(t *testing.T) {
	const nIdx, d = 48, 256
	words, err := workload.SpreadCodewords(d-1, nIdx+1, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	space := metric.HammingCube(d)
	src := rng.New(4242)
	for trial := 0; trial < 24; trial++ {
		i := src.Intn(nIdx)
		var xi int32
		sa := make(metric.PointSet, nIdx)
		for j := range sa {
			x := int32(src.Intn(2))
			if j == i {
				xi = x
			}
			sa[j] = append(words[j].Clone(), x)
		}
		sb := make(metric.PointSet, 0, nIdx)
		for j, w := range words {
			if j != i {
				sb = append(sb, append(w.Clone(), 0))
			}
		}
		p := Params{Space: space, N: nIdx + 1, R1: 1, R2: 63, Seed: uint64(trial) * 7}
		res, err := Reconcile(p, sa, sb)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != 4 {
			t.Errorf("trial %d: %d rounds, want 4", trial, res.Stats.Rounds)
		}
		want := append(words[i].Clone(), xi)
		found := false
		for _, pt := range res.TA {
			found = found || pt.Equal(want)
		}
		if !found {
			t.Errorf("trial %d: codeword %d with bit %d not delivered (%d points sent)", trial, i, xi, len(res.TA))
		}
	}
}

func TestEmptyAlice(t *testing.T) {
	space := metric.HammingCube(128)
	inst, err := workload.NewGapInstance(space, 20, 0, 0, 4, 32, 37)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Space: space, N: 20, R1: 4, R2: 32, Seed: 5}
	res, err := Reconcile(p, nil, inst.SB)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TA) != 0 {
		t.Errorf("empty Alice transmitted %d elements", len(res.TA))
	}
	if len(res.SPrime) != len(inst.SB) {
		t.Errorf("|S'B| = %d, want %d", len(res.SPrime), len(inst.SB))
	}
}

func TestSizeBoundEnforced(t *testing.T) {
	space := metric.HammingCube(64)
	p := Params{Space: space, N: 2, R1: 2, R2: 16, Seed: 1}
	sa := workload.RandomSet(space, 5, rngFor(1))
	if _, err := Reconcile(p, sa, nil); err == nil {
		t.Error("oversized set accepted")
	}
}

func TestIdenticalSetsTransferNothing(t *testing.T) {
	space := metric.HammingCube(256)
	sb := workload.RandomSet(space, 40, rngFor(11))
	p := Params{Space: space, N: 40, R1: 4, R2: 64, Seed: 13}
	res, err := Reconcile(p, sb.Clone(), sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TA) != 0 {
		t.Errorf("identical sets transferred %d elements", len(res.TA))
	}
}

func TestMatchesCounting(t *testing.T) {
	a := []uint64{1, 2, 3, 4}
	b := []uint64{1, 9, 3, 9}
	if got := matches(a, b); got != 2 {
		t.Errorf("matches = %d, want 2", got)
	}
}

func TestEncodeDecodeKeyRoundTrip(t *testing.T) {
	key := []uint64{5, 1023, 0, 77}
	payload := encodeKey(key, 10)
	got := make([]uint64, 4)
	decodeKey(got, payload, 10)
	for i := range key {
		if got[i] != key[i] {
			t.Fatalf("entry %d: %d != %d", i, got[i], key[i])
		}
	}
}

func rngFor(seed uint64) *rng.Source { return rng.New(seed) }

// isClose is the reference classification closeIndex replaces: a linear
// scan reporting whether aKey matches some Bob key in at least threshold
// entries.
func (pl *plan) isClose(aKey []uint64, bobKeys [][]uint64) bool {
	for _, bk := range bobKeys {
		if matches(aKey, bk) >= pl.threshold {
			return true
		}
	}
	return false
}

// TestCloseIndexMatchesScan checks the pigeonhole index against the
// reference scan, verdict by verdict, on the benchmark's plan shape, a
// small-N plan and a one-sided plan (threshold 1, so every group is one
// position). Alice's keys are planted at exactly T and T−1 entries from
// a Bob key: anywhere; on the last T positions or the last T−1; and at
// the grouped index's edges, T agreements with one disagreement in every
// group of P = h−T+1 but one (the first, a middle or the last group
// intact) and T−1 agreements with one disagreement in every group. An
// index over fewer groups misses some of the intact-group keys.
func TestCloseIndexMatchesScan(t *testing.T) {
	bench, err := newPlan(Params{Space: metric.HammingCube(1024), N: 512, R1: 8, R2: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	small, err := newPlan(Params{Space: metric.HammingCube(64), N: 4, R1: 2, R2: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	oneSided, err := newOneSidedPlan(Params{Space: metric.Grid(1<<20, 2, metric.L2), N: 50, R1: 50, R2: 30000, Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pl   *plan
	}{{"bench", bench}, {"small", small}, {"one-sided", oneSided}} {
		name, pl := c.name, c.pl
		h, T := pl.h, pl.threshold
		P := h - T + 1
		t.Logf("%s: h=%d T=%d P=%d", name, h, T, P)
		src := rng.New(uint64(h))
		var verdicts [2]int
		for trial := 0; trial < 12; trial++ {
			// Entries drawn from a small alphabet make many Bob keys
			// share entries (crowded buckets, partial agreements); the
			// full entry width makes them nearly all distinct.
			alphabet := []uint64{2, 8, 1 << pl.ky.bits}[trial%3]
			nBob := []int{0, 1, 7, 60, 300}[trial%5]
			bob := make([]uint64, nBob*h)
			for i := range bob {
				bob[i] = src.Uint64() % alphabet
			}
			if nBob > 1 { // a duplicate Bob key
				copy(bob[h:2*h], bob[:h])
			}
			bobRows := make([][]uint64, nBob)
			for k := range bobRows {
				bobRows[k] = bob[k*h : (k+1)*h]
			}
			idx := newCloseIndex(bob, h, T)

			// plant copies Bob key k on the given positions and puts an
			// entry no Bob key holds everywhere else.
			plant := func(k int, keep []int) []uint64 {
				a := make([]uint64, h)
				for j := range a {
					a[j] = alphabet + 1 + src.Uint64()%1000
				}
				for _, j := range keep {
					a[j] = bobRows[k][j]
				}
				return a
			}
			span := func(lo, hi int) []int {
				var s []int
				for j := lo; j < hi; j++ {
					s = append(s, j)
				}
				return s
			}
			// broken keeps every position but one random position in
			// each group [g·h/P, (g+1)·h/P) other than intact (−1: break
			// every group).
			broken := func(intact int) []int {
				var keep []int
				for g := 0; g < P; g++ {
					lo, hi := g*h/P, (g+1)*h/P
					drop := -1
					if g != intact {
						drop = lo + src.Intn(hi-lo)
					}
					for j := lo; j < hi; j++ {
						if j != drop {
							keep = append(keep, j)
						}
					}
				}
				return keep
			}
			var alice [][]uint64
			for q := 0; q < 40; q++ {
				a := make([]uint64, h)
				for j := range a {
					a[j] = src.Uint64() % alphabet
				}
				alice = append(alice, a)
				if nBob == 0 {
					continue
				}
				k := src.Intn(nBob)
				perm := src.Perm(h)
				alice = append(alice,
					plant(k, perm[:T]),     // exactly T, anywhere
					plant(k, perm[:T-1]),   // exactly T−1, anywhere
					plant(k, span(P-1, h)), // T, the last positions
					plant(k, span(P, h)),   // T−1, the last positions
					plant(k, broken(0)),    // T, the first group intact
					plant(k, broken(P/2)),  // T, a middle group intact
					plant(k, broken(P-1)),  // T, the last group intact
					plant(k, broken(-1)),   // T−1, every group broken
					append([]uint64(nil), bobRows[k]...),
				)
			}
			for i, a := range alice {
				want := pl.isClose(a, bobRows)
				if got := idx.close(a); got != want {
					t.Fatalf("%s trial %d key %d: index says close=%v, scan says %v", name, trial, i, got, want)
				}
				if want {
					verdicts[1]++
				} else {
					verdicts[0]++
				}
			}
		}
		if verdicts[0] == 0 || verdicts[1] == 0 {
			t.Fatalf("%s: verdicts far/close = %v; the test must exercise both", name, verdicts)
		}
	}
}

// TestKeyBatchGolden pins keyBatch's flat layout: row i is exactly
// keyInto of point i, so the setsets children built from the rows hit
// the wire unchanged.
func TestKeyBatchGolden(t *testing.T) {
	space := metric.HammingCube(256)
	inst, err := workload.NewGapInstance(space, 48, 3, 1, 8, 64, 21)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := newPlan(Params{Space: space, N: 52, R1: 8, R2: 64, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	h := pl.h
	keys := pl.keyBatch(inst.SA)
	if len(keys) != len(inst.SA)*h {
		t.Fatalf("%d key entries, want %d", len(keys), len(inst.SA)*h)
	}
	want := make([]uint64, h)
	batch := make([]uint64, pl.ky.m)
	for i, pt := range inst.SA {
		pl.ky.keyInto(want, batch, pt)
		if !slices.Equal(keys[i*h:(i+1)*h], want) {
			t.Fatalf("point %d: key differs from keyInto", i)
		}
	}
}
