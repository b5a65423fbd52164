// Quickstart: reconcile two noisy point sets with the EMD protocol.
//
// Alice and Bob each hold 32 points in {0,1}^64. Most of Alice's points
// are 1–2 bit-flips away from Bob's (sensor noise); three are entirely
// new. One message from Alice lets Bob update his set so it is close to
// hers in earth mover's distance.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	robustsync "repro"
	"repro/internal/matching"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run reconciles the planted instance and prints the EMD before and
// after, against the optimum with k exclusions.
func run(w io.Writer) error {
	space := robustsync.HammingSpace(64)
	const n, k = 32, 3

	// Plant a workload: Bob's set, plus Alice's noisy view of it with k
	// outliers. In a real deployment each party brings its own data.
	inst := workload.NewEMDInstance(space, n, k, 2, 42)
	alice, bob := inst.SA, inst.SB

	// Both parties construct identical Params (the shared seed is the
	// paper's public coins). ReconcileEMDScaled needs no prior knowledge
	// of how different the sets are.
	params := robustsync.DefaultEMDParams(space, n, k, 7)
	res, err := robustsync.ReconcileEMDScaled(params, alice, bob)
	if err != nil {
		return err
	}
	if res.Failed {
		return fmt.Errorf("protocol failed (allowed with small probability; retry with a new seed)")
	}

	before := matching.EMD(space, alice, bob)
	after := matching.EMD(space, alice, res.SPrime)
	fmt.Fprintf(w, "EMD(Alice, Bob) before reconciliation: %.0f\n", before)
	fmt.Fprintf(w, "EMD(Alice, Bob') after reconciliation: %.0f\n", after)
	fmt.Fprintf(w, "optimal with %d exclusions (EMD_k):     %.0f\n", k,
		matching.EMDk(space, alice, bob, k))
	fmt.Fprintf(w, "communication: %s\n", res.Stats)
	return nil
}
