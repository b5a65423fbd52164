package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRun runs each model at a small n through the command's own flag
// parsing. The gap models must cover every point of SA; the EMD model
// must decode a level and report its communication.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want []string
	}{
		{"emd", []string{"-model", "emd", "-n", "24", "-k", "3"},
			[]string{`decoded level i\* = [1-9]\d* of \d+; \|XA\| = \d+`, `communication: rounds=1 a→b=[1-9]\d*bits`}},
		{"gap", []string{"-model", "gap", "-n", "24", "-k", "3"},
			[]string{`uncovered points of SA \(must be 0\): 0\n`, `communication: rounds=\d+ `}},
		{"gap1", []string{"-model", "gap1", "-norm", "l2", "-d", "2", "-delta", "1048575", "-n", "24", "-k", "3", "-r1", "50", "-r2", "30000"},
			[]string{`uncovered points of SA \(must be 0\): 0\n`, `communication: rounds=\d+ `}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, c.args); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			for _, re := range c.want {
				if !regexp.MustCompile(re).MatchString(out.String()) {
					t.Errorf("output lacks %q:\n%s", re, out.String())
				}
			}
		})
	}
}

// TestRunRejectsBadFlags: usage errors come back as errors instead of
// exiting the process.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-model", "nope"}, {"-norm", "nope"}} {
		var out bytes.Buffer
		if err := run(&out, args); err == nil {
			t.Errorf("%s accepted", strings.Join(args, " "))
		}
	}
}

// TestRunGap1NeedsWideGap: Theorem 4.5 needs r2 > r1·d, which the
// default flags (r1 = 8, r2 = d/4) violate, so -model gap1 with them is
// a usage error naming the constraint and its flags, returned before
// any instance is built; the usage line's ℓ2 flags satisfy it and run.
func TestRunGap1NeedsWideGap(t *testing.T) {
	var out bytes.Buffer
	err := run(&out, []string{"-model", "gap1"})
	if err == nil || !strings.Contains(err.Error(), "-r2 > -r1 · -d (Theorem 4.5)") {
		t.Fatalf("default flags: err = %v, want the Theorem 4.5 usage error", err)
	}
	if out.Len() != 0 {
		t.Fatalf("the usage error came after output:\n%s", out.String())
	}
	usage := "-model gap1 -norm l2 -d 2 -delta 1048575 -n 48 -k 3 -r1 50 -r2 30000"
	if err := run(&out, strings.Fields(usage)); err != nil {
		t.Fatalf("%s: %v", usage, err)
	}
}
