// Blockrelay: classic exact set reconciliation, the substrate both robust
// protocols build on and the paper's §1.1 application ([5]: scalable
// transaction synchronization for Bitcoin). Two nodes hold mempools of
// ~20k transaction IDs that differ in a few hundred entries; instead of
// exchanging full ID lists, one node sends a strata estimator plus an
// IBLT sized to the estimated difference.
//
// Run: go run ./examples/blockrelay
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	robustsync "repro"
	"repro/internal/rng"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run reconciles the two mempools and prints how many transactions
// each node learns, which must match the planted differences.
func run(w io.Writer) error {
	const (
		mempool = 20000
		onlyB   = 180 // transactions node B has that A lacks
		onlyA   = 60  // and vice versa
	)
	src := rng.New(8891)

	shared := make([]uint64, mempool)
	for i := range shared {
		shared[i] = src.Uint64()
	}
	nodeA := append([]uint64{}, shared...)
	nodeB := append([]uint64{}, shared...)
	for i := 0; i < onlyB; i++ {
		nodeB = append(nodeB, src.Uint64()|1<<63)
	}
	for i := 0; i < onlyA; i++ {
		nodeA = append(nodeA, src.Uint64()&^(1<<63))
	}

	// Phase 1: estimate the difference size without prior context.
	est, err := robustsync.EstimateDiff(nodeB, nodeA, 501)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "true difference: %d, strata estimate: %d\n", onlyA+onlyB, est)

	// Phase 2: reconcile with an IBLT sized to the estimate (with a
	// safety factor; SyncIDs retries with doubling if it undershoots).
	missingAtA, missingAtB, err := robustsync.SyncIDs(nodeB, nodeA, est*2, 502)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "node A learns %d missing transactions\n", len(missingAtA))
	fmt.Fprintf(w, "node B learns %d missing transactions\n", len(missingAtB))
	if len(missingAtA) != onlyB || len(missingAtB) != onlyA {
		return fmt.Errorf("reconciliation incomplete: %d/%d", len(missingAtA), len(missingAtB))
	}

	// Cost comparison: the IBLT carries O(diff) cells of ~17 bytes vs
	// shipping the full 8-byte-per-ID mempool.
	fmt.Fprintf(w, "full mempool dump would be %d bytes; IBLT cost scales with the %d-entry difference\n",
		8*len(nodeB), onlyA+onlyB)
	return nil
}
