package gap

import (
	"testing"

	"repro/internal/metric"
	"repro/internal/workload"
)

// TestKeyBatchGolden asserts sharded key construction produces exactly
// the sequential keys, in the same positions, for any worker count —
// the setsets children built from them must hit the wire unchanged.
func TestKeyBatchGolden(t *testing.T) {
	space := metric.HammingCube(256)
	inst, err := workload.NewGapInstance(space, 48, 3, 1, 8, 64, 21)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Space: space, N: 52, R1: 8, R2: 64, Seed: 9}
	mk := func(workers int) []uint64 {
		pw := p
		pw.Workers = workers
		pl, err := newPlan(pw)
		if err != nil {
			t.Fatal(err)
		}
		return pl.keyBatch(inst.SA)
	}
	seq := mk(1)
	for _, workers := range []int{0, 2, 7} {
		got := mk(workers)
		if len(got) != len(seq) {
			t.Fatalf("workers=%d: %d key entries, want %d", workers, len(got), len(seq))
		}
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("workers=%d: flat key entry %d differs", workers, i)
			}
		}
	}
}
