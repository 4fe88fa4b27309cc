package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	mosaic "repro"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) in Python.
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil || q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, err, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one value succeeded")
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsSamplesBeyondIt(t *testing.T) {
	if v, err := percentile(seq(100), 0.5, 10); err != nil || v != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	// p99 of 100 samples has one sample beyond it: not a percentile.
	if _, err := percentile(seq(100), 0.99, 10); err == nil {
		t.Error("p99 of 100 samples accepted with 1 beyond it")
	}
	// 1100 samples leave 11 beyond the p99.
	if v, err := percentile(seq(1100), 0.99, 10); err != nil || v != 1089 {
		t.Errorf("p99 of 1..1100 = %v, %v; want 1089", v, err)
	}
	if _, err := percentile(seq(1000), 0.99, 11); err == nil {
		t.Error("p99 of 1000 samples accepted with 10 beyond it, 11 required")
	}
	if _, err := percentile(nil, 0.5, 0); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
}

func TestAggregateThroughput(t *testing.T) {
	// Work summed over passes, divided by the summed interval — not the
	// mean of per-pass rates.
	passes := []struct{ work, seconds float64 }{{10, 1}, {10, 4}}
	var w, s float64
	for _, p := range passes {
		w += p.work
		s += p.seconds
	}
	if r, err := perSecond(w, s); err != nil || r != 4 {
		t.Errorf("aggregate rate = %v, %v; want 4", r, err)
	}
	if _, err := perSecond(1, 0); err == nil {
		t.Error("rate over a zero interval succeeded")
	}
}

func TestGeomeanSpeedup(t *testing.T) {
	if g, err := geomean([]float64{2, 8}); err != nil || math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, %v; want 4", g, err)
	}
	if _, err := geomean([]float64{1, 0}); err == nil {
		t.Error("geomean with a zero succeeded")
	}
	// Grid order is value-major with gpummu, mosaic as the policy axis:
	// the ratios are 4/2 and 2/4, whose geometric mean is 1.
	recs := []mosaic.RunRecord{{TotalIPC: 2}, {TotalIPC: 4}, {TotalIPC: 4}, {TotalIPC: 2}}
	if s, err := speedup(recs, 2); err != nil || math.Abs(s-1) > 1e-12 {
		t.Errorf("speedup = %v, %v; want 1", s, err)
	}
	if _, err := speedup(recs[:3], 2); err == nil {
		t.Error("speedup of an odd record count succeeded")
	}
	if _, err := speedup([]mosaic.RunRecord{{TotalIPC: 0}, {TotalIPC: 1}}, 2); err == nil {
		t.Error("speedup over a zero GPU-MMU IPC succeeded")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the names and
// units the benchmark prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, names []string, units map[string]string) {
		if len(got) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(names))
		}
		for i, m := range got {
			if i < len(names) && m.Name != names[i] {
				t.Errorf("%s %d: BENCHMARK.json %q, benchmark %q", kind, i, m.Name, names[i])
			}
			if units[m.Name] != m.Unit {
				t.Errorf("%s %s: BENCHMARK.json unit %q, benchmark %q", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics, e2eUnits)
	check("per_layer", spec.PerLayer, layerMetrics, layerUnits)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
	if sort.Strings(names); len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the benchmark %s", names, workloadNames())
	}
}
