// Command bench is the repository's benchmark: five named workloads,
// end-to-end metrics measured with tracing off, and a traced run that
// yields the per-layer metrics. See README.md in this directory.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	bench -aa <runs> [-vary] [-workload <name>]
//
// The last line of standard output is one JSON object; everything meant
// for people goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: emd-oneshot, gap-oneshot, churn-serve, mesh-churn, mesh-rtt")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", refSeconds, "nominal length of the timed phase; fixed op counts scale with it")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes <out>/<workload>.trace.json")
		outDir  = flag.String("out", "bench/out", "directory for trace files and scratch data (git-ignored)")
		aa      = flag.Int("aa", 0, "A/A mode: run each workload this many times and check every spread against -bounds")
		vary    = flag.Bool("vary", false, "with -aa: give every run another seed (the acceptance driver's rule) instead of the same one")
		bounds  = flag.String("bounds", "BENCHMARK.json", "with -aa: the declaration whose bounds are checked")
	)
	flag.Parse()
	if *aa > 0 {
		os.Exit(runAA(*aa, *vary, *name, *seed, *seconds, *bounds))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, seconds: *seconds, scale: 1, setups: 3, outDir: *outDir}
	var rep report
	var err error
	if *trace == 0 {
		rep, err = runUntraced(w, rc)
	} else {
		rep, err = runTraced(w, rc)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func header(w workload, rc runConfig, r *result, mode string) {
	fmt.Fprintf(os.Stderr, "== %s  seed=%d seconds=%g  %s  inputs=%016x\n", w.name, rc.seed, rc.seconds, mode, r.inputs)
	fmt.Fprintf(os.Stderr, "   loopback / in-process only: no real link is crossed\n")
	for _, line := range r.info {
		fmt.Fprintf(os.Stderr, "   %s\n", line)
	}
	fmt.Fprintf(os.Stderr, "   %s\n", latencyLine("op", "ms", r.opMS))
	fmt.Fprintf(os.Stderr, "   timed phase: %.3f s wall, %.3f s process CPU (%.2f cores busy), %.3f ms CPU per op\n",
		r.timedS, r.cpuS, r.cpuS/r.timedS, 1e3*r.cpuS/float64(max(len(r.opMS), 1)))
	fmt.Fprintf(os.Stderr, "   fail_share=%.4f (%d of %d)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "   FAILED: %s\n", f)
	}
}

func runUntraced(w workload, rc runConfig) (report, error) {
	r, err := w.run(rc)
	if err != nil {
		return report{}, err
	}
	header(w, rc, r, "untraced")
	values := endToEndValues(r)
	rep := report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metricValue{values[m.name], m.unit}
		fmt.Fprintf(os.Stderr, "   %-18s %14.6g %s\n", m.name, values[m.name], m.unit)
	}
	return rep, nil
}

// refShare is how much of the op count the traced run's untraced
// reference pass uses: enough for a stable median, short enough that a
// traced invocation stays near the length of an untraced one.
const refShare = 0.3

func runTraced(w workload, rc runConfig) (report, error) {
	// An untraced reference pass first, so the traced numbers can be set
	// against an untraced op_p50_ms and ops_per_s from the same process.
	ref := rc
	ref.setups, ref.scale = 1, rc.scale*refShare
	base, err := w.run(ref)
	if err != nil {
		return report{}, err
	}
	rc.setups, rc.tr = 1, newTracer()
	r, err := w.run(rc)
	if err != nil {
		return report{}, err
	}
	header(w, rc, r, "traced")
	spans := rc.tr.snapshot()
	path, err := writeTrace(rc.outDir, traceFile{w.name, rc.seed, fmt.Sprintf("%016x", r.inputs), spans})
	if err != nil {
		return report{}, err
	}
	fmt.Fprintf(os.Stderr, "   %d spans written to %s\n", len(spans), path)
	selfTimeSummary(spans, base, r)

	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer["fail_share"] = float64(r.failed) / float64(max(r.attempted, 1))
	rep := report{Correct: r.failed == 0 && base.failed == 0, Attempted: r.attempted, Failed: r.failed + base.failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		rep.Metrics[m.name] = metricValue{r.layer[m.name], m.unit}
		fmt.Fprintf(os.Stderr, "   %-38s %14.6g %s\n", m.name, r.layer[m.name], m.unit)
	}
	for _, k := range sortedKeys(r.layer) {
		if _, known := rep.Metrics[k]; !known {
			return report{}, fmt.Errorf("workload set per-layer metric %q, which is not declared", k)
		}
	}
	return rep, nil
}

// selfTimeSummary prints each layer's self time (span minus children)
// and its share of the ops' wall time, the per-op sum of those shares
// against the untraced op median, and what tracing cost.
func selfTimeSummary(spans []span, untraced, traced *result) {
	self, blocking, perOpBusy := layerTotals(spans)
	ops := float64(len(traced.opMS))
	layers := sortedKeys(self)
	sort.SliceStable(layers, func(i, j int) bool { return blocking[layers[i]] > blocking[layers[j]] })
	fmt.Fprintf(os.Stderr, "   per layer: self time (span minus the part its children cover), and share of the op's wall time\n")
	fmt.Fprintf(os.Stderr, "   (overlapping busy spans split the overlap; waits count only while nothing else runs):\n")
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "     %-10s self %10.3f ms/op   wall share %10.3f ms/op\n", l, self[l]/1e6/ops, blocking[l]/1e6/ops)
	}
	// The untraced reference pass ran only the first ops of the workload;
	// set it against the same ops of the traced pass, so that what differs
	// is tracing and not which ops were measured.
	same := min(len(untraced.opMS), len(traced.opMS))
	var busy []float64
	for op, ns := range perOpBusy {
		if op >= 0 && op < same {
			busy = append(busy, ns/1e6)
		}
	}
	untracedP50, _ := percentile(sortedCopy(untraced.opMS), 50)
	sum := median(busy)
	fmt.Fprintf(os.Stderr, "   first %d ops, as in the untraced reference pass:\n", same)
	fmt.Fprintf(os.Stderr, "   sum of wall shares per op (median, waiting excluded) %.4f ms vs untraced op_p50_ms %.4f ms: %+.1f%%\n",
		sum, untracedP50, 100*(sum/untracedP50-1))
	u, t := segmentRate(untraced.opEndS), segmentRate(traced.opEndS[:same])
	fmt.Fprintf(os.Stderr, "   tracing overhead: ops_per_s %.4g untraced vs %.4g traced: %+.1f%%\n", u, t, 100*(t/u-1))
}
