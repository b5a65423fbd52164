package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at 1/50 scale, traced and untraced, so
// the import seam keeps compiling against the repository and every
// output check keeps passing.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rc := runConfig{seed: 5, seconds: refSeconds, scale: 0.02, setups: 1, outDir: t.TempDir()}
			if traced {
				rc.tr = newTracer()
			}
			r, err := w.run(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.failed != 0 || r.attempted == 0 || len(r.opMS) == 0 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d ops=%d %v", w.name, traced, r.attempted, r.failed, len(r.opMS), r.failures)
			}
			for name, v := range endToEndValues(r) {
				if !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v)
				}
			}
			declared := map[string]bool{}
			for _, m := range perLayer {
				declared[m.name] = true
			}
			for name := range r.layer {
				if !declared[name] {
					t.Errorf("%s: per-layer metric %s is not declared", w.name, name)
				}
			}
			if traced && len(rc.tr.snapshot()) == 0 {
				t.Errorf("%s: traced run recorded no span", w.name)
			}
		}
	}
}

// TestDeclarationInSync checks BENCHMARK.json against the tables the
// program prints from.
func TestDeclarationInSync(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, implemented %q", i, decl.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, table []metricDef) {
		if len(declared) != len(table) {
			t.Fatalf("%s: %d declared, %d in the program", kind, len(declared), len(table))
		}
		for i, m := range table {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s %d: declared %s [%s], program has %s [%s]", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd)
	check("per_layer", decl.PerLayer, perLayer)
}
