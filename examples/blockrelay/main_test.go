package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: at its fixed seeds each node learns exactly the transactions
// only the other holds: 180 for A, 60 for B.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"node A learns 180 missing", "node B learns 60 missing"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output lacks %q:\n%s", want, out.String())
		}
	}
}
