package main

import (
	"bytes"
	"fmt"
	"testing"
)

// TestRun: at its fixed seeds the quickstart reconciles, and Bob's
// updated set is closer to Alice's in EMD than his original was.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	var before, after float64
	if _, err := fmt.Sscanf(out.String(),
		"EMD(Alice, Bob) before reconciliation: %g\nEMD(Alice, Bob') after reconciliation: %g\n",
		&before, &after); err != nil {
		t.Fatalf("unexpected output (%v):\n%s", err, out.String())
	}
	if after >= before {
		t.Fatalf("EMD after reconciliation %g, want below %g before:\n%s", after, before, out.String())
	}
}
