// Command simulate runs named fault-injection scenarios over the
// deterministic virtual network (internal/simnet) and reports whether
// the whole reconciliation stack — sessions, protocols, store, cluster
// anti-entropy — survived them: every set converged to the planted
// ground truth, no connections leaked, the pooled-buffer canary held.
//
// The event trace is deterministic: the same -scenario and -seed
// produce byte-identical output, so a failing seed from CI (or a soak
// run) is replayed exactly with the same invocation, and replay
// determinism itself is checked by diffing two runs.
//
// Usage:
//
//	simulate -list
//	simulate -scenario partition-rejoin -seed 42
//	simulate -scenario flaky-link-soak -seed 7 -trace trace.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/simnet/scenario"
)

func main() {
	var (
		name     = flag.String("scenario", "", "scenario to run (see -list)")
		seed     = flag.Uint64("seed", 42, "deterministic run seed")
		list     = flag.Bool("list", false, "list available scenarios and exit")
		traceOut = flag.String("trace", "-", "write the event trace here (- = stdout)")
		quiet    = flag.Bool("q", false, "suppress the stdout trace (a -trace file is still written)")
	)
	flag.Parse()

	if *list {
		for _, sc := range scenario.Builtin() {
			fmt.Printf("%-20s %3d nodes %2d sets <=%2d rounds  %s\n",
				sc.Name, sc.Nodes, len(sc.Sets), sc.Rounds, oneLine(sc.Desc, 100))
		}
		return
	}
	sc, ok := scenario.Lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "simulate: unknown scenario %q (try -list)\n", *name)
		os.Exit(2)
	}
	res, err := scenario.Run(sc, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(2)
	}
	// -q only silences stdout; an explicitly requested trace file is
	// always written (capturing the repro artifact of a quiet soak).
	text := res.TraceText()
	switch {
	case *traceOut != "-" && *traceOut != "":
		if err := os.WriteFile(*traceOut, []byte(text), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "simulate: writing trace: %v\n", err)
			os.Exit(2)
		}
	case !*quiet:
		fmt.Print(text)
	}
	status := "ok"
	if !res.Ok() {
		status = fmt.Sprintf("FAILED (%d invariant violations)", len(res.Failures))
	}
	fmt.Fprintf(os.Stderr, "simulate: %s seed=%d rounds=%d converged=%d sessions=%d dials=%d: %s\n",
		res.Scenario, res.Seed, res.RoundsRun, res.ConvergedRound, res.Sessions, res.Dials, status)
	if !res.Ok() {
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "  - %s\n", f)
		}
		os.Exit(1)
	}
}

// oneLine truncates a description at the last sentence or word boundary
// that fits in max runes, so -list stays one line per scenario.
func oneLine(s string, max int) string {
	if len(s) <= max {
		return s
	}
	cut := s[:max]
	if i := strings.LastIndex(cut, ". "); i > max/2 {
		return cut[:i+1]
	}
	if i := strings.LastIndexByte(cut, ' '); i > 0 {
		cut = cut[:i]
	}
	return cut + "…"
}
