package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickRun runs every workload in smoke mode, traced, and holds the
// metrics it emits to the names and units BENCHMARK.json declares, so the
// harness and its contract cannot drift apart unnoticed.
func TestQuickRun(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(b.Workloads), len(workloadDefs))
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef, got map[string]float64) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, harness %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], harness %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
			if _, ok := got[d.name]; !ok {
				t.Errorf("%s: run did not emit %s", kind, d.name)
			}
		}
		if len(got) != len(defs) {
			t.Errorf("%s: run emitted %d metrics, want %d", kind, len(got), len(defs))
		}
	}
	for i, def := range workloadDefs {
		if b.Workloads[i].Name != def.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, harness %s", i, b.Workloads[i].Name, def.name)
		}
		res, err := run(options{workload: def.name, seed: 3, seconds: 1, trace: true, quick: true,
			outDir: t.TempDir(), tmpRoot: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		if !res.correct || res.attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", def.name, res.correct, res.attempted, res.failed)
		}
		for _, d := range endToEndMetrics {
			if !(res.e2e[d.name] > 0) {
				t.Errorf("%s: %s = %v, want a positive value", def.name, d.name, res.e2e[d.name])
			}
		}
		for _, d := range timedMetrics {
			if !(res.layer[d.name] > 0) {
				t.Errorf("%s: %s = %v, want a positive value", def.name, d.name, res.layer[d.name])
			}
		}
		check(def.name+" end_to_end", b.EndToEnd, endToEndMetrics, res.e2e)
		check(def.name+" per_layer", b.PerLayer, layerMetrics, res.layer)
	}
}
