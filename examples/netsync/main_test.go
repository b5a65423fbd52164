package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRun: at its fixed seeds Bob's set grows over the TCP session and
// leaves none of Alice's points uncovered.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "uncovered points of SA (must be 0): 0\n") {
		t.Fatalf("points left uncovered:\n%s", out.String())
	}
	m := regexp.MustCompile(`Bob's set grew (\d+) -> (\d+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no set growth line:\n%s", out.String())
	}
	from, _ := strconv.Atoi(m[1])
	to, _ := strconv.Atoi(m[2])
	if to <= from {
		t.Fatalf("Bob's set went %d -> %d, want growth", from, to)
	}
}
