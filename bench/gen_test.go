package main

import "testing"

// genAll runs every generator the workloads use at a small size and
// returns the hash of everything produced.
func genAll(seed uint64) uint64 {
	ih := newInputHash()
	genEMDInstances(seed, emdSpace, 2, 32, 4, emdNoise, ih)
	genGapInstance(seed, gapSpace, 32, 4, gapR1, gapR2, ih)
	genSeeds(seed, 16, ih)
	base := uniformPoints(newRand(seed, streamPoints), churnSpace, 16)
	ih.points(base)
	genReplaceBatches(seed, base, 24, churnFlips, ih)
	genMeshInputs(seed, meshSpace, 4, 8, 5, 2, 3, ih)
	return ih.sum()
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := genAll(7), genAll(7); a != b {
		t.Fatalf("seed 7 generated %016x then %016x", a, b)
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	seen := map[uint64]uint64{}
	for seed := uint64(1); seed <= 8; seed++ {
		h := genAll(seed)
		if other, dup := seen[h]; dup {
			t.Fatalf("seeds %d and %d generated the same inputs %016x", other, seed, h)
		}
		seen[h] = seed
	}
}

func TestPlantedStructure(t *testing.T) {
	ih := newInputHash()
	in := genGapInstance(3, gapSpace, 64, 4, gapR1, gapR2, ih)
	if len(in.sa) != 64 || len(in.sb) != 64 || len(in.far) != 4 {
		t.Fatalf("sizes %d %d %d", len(in.sa), len(in.sb), len(in.far))
	}
	far := 0
	for _, a := range in.sa {
		switch d := minHamming(in.sb, a, gapR2); {
		case d >= gapR2:
			far++
		case d > gapR1:
			t.Fatalf("a point of SA is %d from SB: neither within r1 nor beyond r2", d)
		}
	}
	if far != 4 {
		t.Fatalf("%d far points, want 4", far)
	}

	base := uniformPoints(newRand(3, streamPoints), churnSpace, 8)
	cur := append(pointSet(nil), base...)
	for i, b := range genReplaceBatches(3, base, 50, churnFlips, ih) {
		j := -1
		for k, p := range cur {
			if hammingUpTo(p, b.remove, 1) == 0 {
				j = k
			}
		}
		if j < 0 {
			t.Fatalf("batch %d removes a point the set does not hold", i)
		}
		if d := hammingUpTo(base[j], b.add, churnSpace.dim); d != churnFlips {
			t.Fatalf("batch %d adds a point %d from its object, want %d", i, d, churnFlips)
		}
		cur[j] = b.add
	}
}
