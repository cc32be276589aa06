package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/explore"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite expected_speedups.json from core.Customize")

// TestExpectedSpeedups pins the table the fig7-sweep and miss-mix checks
// compare against: it is what core.Customize — the single-program path the
// service runs — gives for every benchmark at budgets 1..15, so a sweep
// that matches it also agrees with the service on all 240 points.
func TestExpectedSpeedups(t *testing.T) {
	if testing.Short() {
		t.Skip("240 full customizations")
	}
	benches := workloads.All()
	budgets := experiment.Budgets1to15()
	got := make(map[string][]float64)
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for _, b := range benches {
		row := make([]float64, len(budgets))
		mu.Lock()
		got[b.Name] = row
		mu.Unlock()
		for i, budget := range budgets {
			wg.Add(1)
			sem <- struct{}{}
			go func(b *workloads.Benchmark, i int, budget float64) {
				defer wg.Done()
				defer func() { <-sem }()
				res, err := core.Customize(b.Program, core.Config{Budget: budget, Strategy: explore.StrategyEnumerate})
				if err != nil {
					t.Errorf("%s at %g: %v", b.Name, budget, err)
					return
				}
				row[i] = res.Report.Speedup
			}(b, i, budget)
		}
	}
	wg.Wait()
	if *update {
		js, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected_speedups.json", append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for name, row := range got {
			if !reflect.DeepEqual(row, want[name]) {
				t.Errorf("%s: core.Customize gives %v, table has %v", name, row, want[name])
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// workload names in step with what the command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", what, len(got), len(defs))
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", names, workloadNames())
	}
}
