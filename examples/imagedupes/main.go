// Imagedupes: near-duplicate detection across two image stores. Each
// store holds perceptual-hash fingerprints (1024-bit vectors) of its
// images. Re-encoded or resized copies of the same image differ in a few
// bits; genuinely new images differ in hundreds. Store B wants every
// image A has that B lacks — the Gap Guarantee model with Hamming radii
// (r1 = small re-encoding noise, r2 = different-image distance).
//
// The interesting regime is exactly where the paper's bounds bite:
// fingerprints are long (log|U| = 1024 bits) but only k images differ,
// so the protocol's (k + ρn)·polylog + k·log|U| beats shipping all
// n·1024 bits.
//
// Run: go run ./examples/imagedupes
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	robustsync "repro"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run reconciles the two stores and prints how many of A's novel
// images reached B, which must be all of them.
func run(w io.Writer) error {
	const (
		dBits = 4096 // fingerprint length
		n     = 96   // images per store
		kNew  = 3    // images only store A has
		r1    = 12   // max re-encoding perturbation
		r2    = 512  // distinct images are at least this far
	)
	space := robustsync.HammingSpace(dBits)

	inst, err := workload.NewGapInstance(space, n, kNew, 0, r1, r2, 777)
	if err != nil {
		return err
	}
	storeA, storeB := inst.SA, inst.SB

	params := robustsync.GapParams{
		Space: space, N: n + kNew, R1: r1, R2: r2, Seed: 31337,
		// Keys are Θ(log n)-bit-entry vectors; HFactor trades recall
		// margin against key size. 5 is comfortable at this gap.
		HFactor: 5,
	}
	res, err := robustsync.ReconcileGap(params, storeA, storeB)
	if err != nil {
		return err
	}

	// Which of the transferred fingerprints are the genuinely new images?
	recovered := 0
	for _, novel := range inst.Far {
		for _, got := range res.TA {
			if got.Equal(novel) {
				recovered++
				break
			}
		}
	}

	naive := int64(n * dBits)
	fmt.Fprintf(w, "store A: %d fingerprints, %d unknown to B\n", len(storeA), len(inst.Far))
	fmt.Fprintf(w, "transferred fingerprints: %d (includes the %d/%d novel images)\n",
		len(res.TA), recovered, len(inst.Far))
	fmt.Fprintf(w, "communication: %s\n", res.Stats)
	fmt.Fprintf(w, "naive transfer: %d bits (%.1fx more)\n", naive,
		float64(naive)/float64(res.Stats.TotalBits()))
	if recovered != len(inst.Far) {
		return errors.New("missed a novel image — gap guarantee violated")
	}
	return nil
}
