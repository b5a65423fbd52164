package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: at its fixed seeds all three novel images of store A reach
// store B.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(includes the 3/3 novel images)") {
		t.Fatalf("a novel image was missed:\n%s", out.String())
	}
}
