package main

// A/A mode: run every workload several times on unchanged code, each run
// a fresh process exactly as the acceptance driver starts it, and check
// that every end-to-end metric's spread (interquartile range over
// median, with Python's statistics.quantiles cut points) stays within
// the bound BENCHMARK.json declares for it. The Markdown it prints is
// committed as AA.md.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

type declaration struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func runAA(runs int, vary bool, only string, seed uint64, seconds float64, boundsPath string) int {
	data, err := os.ReadFile(boundsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", boundsPath, err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	seeds := "the same seed"
	if vary {
		seeds = "another seed per run"
	}
	fmt.Printf("# A/A: %d runs per workload, %s (from %d), -seconds %g\n\n", runs, seeds, seed, seconds)
	fmt.Printf("spread = (Q3 - Q1) / median, quartiles as Python's `statistics.quantiles(values, n=4)`.\n\n")
	status := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			s := seed
			if vary {
				s += uint64(i)
			}
			cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var rep report
			if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, i, err)
				return 1
			}
			for name, mv := range rep.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		fmt.Printf("## %s\n\n| metric | unit | Q1 | median | Q3 | spread | bound | within |\n|---|---|---|---|---|---|---|---|\n", w.name)
		for _, m := range decl.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			sp := spread(values[m.Name])
			verdict := "yes"
			// The acceptance driver does not hold setup_s to its spread,
			// only to its median; neither does this check.
			if sp > m.Bound && m.Name != "setup_s" {
				verdict, status = "NO", 1
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.6g | %.2f%% | %.1f%% | %s |\n", m.Name, m.Unit, q1, q2, q3, 100*sp, 100*m.Bound, verdict)
		}
		fmt.Println()
	}
	return status
}
