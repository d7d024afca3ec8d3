package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload for a fraction of a second, untraced and
// traced, and checks that the run is correct and reports every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload")
	}
	for _, name := range sortedNames(specs) {
		for _, traced := range []bool{false, true} {
			rep, err := run(specs[name], 3, 0.3, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v",
					name, traced, rep.correct, rep.attempted, rep.failed, rep.errs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				if _, ok := rep.values[d.name]; !ok {
					t.Errorf("%s traced=%v: no %s", name, traced, d.name)
				}
			}
			if rep.values["setup_s"] <= 0 || rep.values["cpu_ms_per_op"] <= 0 || rep.values["heap_mb"] <= 0 {
				t.Errorf("%s: setup_s, cpu_ms_per_op and heap_mb must be positive: %v", name, rep.values)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, at the repository root, in step
// with the workloads and metrics this program defines.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(specs))
	}
	for _, w := range b.Workloads {
		if _, ok := specs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	check := func(list string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", list, len(got), len(want))
			return
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", list, i, m, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
