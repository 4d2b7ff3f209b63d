package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// A short shim run, untraced and traced, reports exactly the metrics
// BENCHMARK.json declares, with the declared units, and checks clean.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, layerMetrics %d", len(bf.PerLayer), len(layerMetrics))
	}
	for i, m := range bf.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s (%s), layerMetrics has %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}

	exp := testExpected(t)
	if err := os.Chdir(".."); err != nil { // run reads its inputs from the checkout root
		t.Fatal(err)
	}
	defer func() { _ = os.Chdir("perfbench") }()
	for _, c := range []struct {
		traced   bool
		declared []struct{ Name, Unit string }
	}{{false, bf.EndToEnd}, {true, bf.PerLayer}} {
		out, err := run(exp, "shim", 7, 0.2, c.traced, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", c.traced, out.Correct, out.Attempted, out.Failed)
		}
		var got, want []string
		for n := range out.Metrics {
			got = append(got, n)
		}
		for _, m := range c.declared {
			want = append(want, m.Name)
			if out.Metrics[m.Name].Unit != m.Unit {
				t.Errorf("traced=%v: %s unit %q, declared %q", c.traced, m.Name, out.Metrics[m.Name].Unit, m.Unit)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("traced=%v: reported %v, declared %v", c.traced, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("traced=%v: reported %s, declared %s", c.traced, got[i], want[i])
			}
		}
	}
}
