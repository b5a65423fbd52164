package emd

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/metric"
	"repro/internal/workload"
)

// shardProcs are the GOMAXPROCS values the sharded paths are pinned
// at: 1 builds in a single block, 4 in four (n = 96 allows six).
var shardProcs = []int{1, 4}

// atProcs runs fn in a subtest with GOMAXPROCS pinned to procs,
// restored when the subtest ends.
func atProcs(t *testing.T, procs int, fn func(t *testing.T)) {
	t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
		prev := runtime.GOMAXPROCS(procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
		fn(t)
	})
}

// TestShardedBuildGolden asserts the tentpole invariant of the parallel
// sketch path: the wire bytes of Alice's message, and of a sketch built
// through BuildSketch, are bit-identical whatever GOMAXPROCS shards the
// build. A peer must be unable to tell how many cores built the sketch
// it received.
func TestShardedBuildGolden(t *testing.T) {
	space := metric.HammingCube(64)
	const n, k = 96, 4
	inst := workload.NewEMDInstance(space, n, k, 2, 11)

	p := DefaultParams(space, n, k, 5)
	p.D1, p.D2 = 4, 64 // informed bounds keep s manageable
	var want []byte
	for _, procs := range shardProcs {
		atProcs(t, procs, func(t *testing.T) {
			msg, err := BuildMessage(p, inst.SA)
			if err != nil {
				t.Fatal(err)
			}
			sk, err := BuildSketch(p, inst.SA)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(msg, sk.Encode()) {
				t.Errorf("BuildSketch encoding differs from BuildMessage")
			}
			if want == nil {
				want = msg
			} else if !bytes.Equal(want, msg) {
				t.Errorf("message differs from the single-block build (%d vs %d bytes)",
					len(msg), len(want))
			}
		})
	}
}

// TestShardedReconcile runs Bob's side with sharded key evaluation —
// through Reconcile and through BuildSketch followed by Sketch.Apply —
// and checks the outcome matches the single-block run exactly (Bob's
// peeling consumes his private randomness identically because the
// received tables are identical and deletes are applied in point
// order).
func TestShardedReconcile(t *testing.T) {
	space := metric.HammingCube(64)
	const n, k = 96, 4
	inst := workload.NewEMDInstance(space, n, k, 2, 12)
	p := DefaultParams(space, n, k, 6)
	p.D1, p.D2 = 4, 64

	paths := []struct {
		name string
		run  func() (Result, error)
	}{
		{"Reconcile", func() (Result, error) { return Reconcile(p, inst.SA, inst.SB) }},
		{"BuildSketch+Apply", func() (Result, error) {
			sk, err := BuildSketch(p, inst.SA)
			if err != nil {
				return Result{}, err
			}
			return sk.Apply(inst.SB)
		}},
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			var want *Result
			for _, procs := range shardProcs {
				atProcs(t, procs, func(t *testing.T) {
					got, err := path.run()
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						want = &got
						return
					}
					if want.Failed != got.Failed || want.Level != got.Level {
						t.Fatalf("outcome diverged: single-block level=%d failed=%v, sharded level=%d failed=%v",
							want.Level, want.Failed, got.Level, got.Failed)
					}
					if len(want.SPrime) != len(got.SPrime) {
						t.Fatalf("|S'B| diverged: %d vs %d", len(want.SPrime), len(got.SPrime))
					}
					for i := range want.SPrime {
						if !slices.Equal(want.SPrime[i], got.SPrime[i]) {
							t.Fatalf("S'B[%d] diverged", i)
						}
					}
				})
			}
		})
	}
}
