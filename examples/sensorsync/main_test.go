package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: at its fixed seeds every object sensor A saw is within r2 of
// one sensor B knows after the sync.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "objects of A left uncovered (must be 0): 0\n") {
		t.Fatalf("objects left uncovered:\n%s", out.String())
	}
}
