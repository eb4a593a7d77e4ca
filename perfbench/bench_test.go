package main

import (
	"encoding/json"
	"os"
	"testing"

	"encmpi"
)

// tinyConfig is a short, small-sized run of one workload.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     3,
		seconds:  0.6,
		trace:    trace,
		traceDir: t.TempDir(),
		tiny:     true,
		jobs:     2,
	}
}

// TestEveryMetricPrinted runs every workload in tiny mode, untraced and
// traced, and checks that each listed metric is reported with its unit and
// that all output checks pass.
func TestEveryMetricPrinted(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, name, trace)
			res, failures, err := run(cfg, hostFacts(cfg))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, failures)
			}
			want := endToEndMetrics
			if trace {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m.Name, got, m.Unit)
				}
				if !trace && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptionIsCounted runs a short halo_shm under wire corruption. A
// corrupted record must fail authentication, be counted as failed ops, and
// leave the run able to finish; the clean solves after it still pass.
func TestCorruptionIsCounted(t *testing.T) {
	cfg := tinyConfig(t, "halo_shm", false)
	cfg.launch = []encmpi.Option{encmpi.WithFaults(encmpi.FaultConfig{Mode: encmpi.FaultCorrupt, MaxInject: 2})}
	res, failures, err := run(cfg, hostFacts(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted run reported correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if res.Failed >= res.Attempted {
		t.Errorf("every op failed (%d of %d); the clean solves should pass", res.Failed, res.Attempted)
	}
	if len(failures) == 0 {
		t.Fatal("no failure notes")
	}
	t.Logf("fail_ratio %.3f (%d of %d): %s", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, failures[0])
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// metrics the program reports, with the same units, and its workloads.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
}
