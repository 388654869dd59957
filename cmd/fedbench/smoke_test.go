package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFedbenchSmoke runs every workload briefly on shrunken instances,
// untraced and traced, and checks that each run is correct and reports
// exactly the metrics, with the units, that BENCHMARK.json declares; that
// every declared metric is measured by some workload; and that no workload
// measures a metric BENCHMARK.json does not declare.
func TestFedbenchSmoke(t *testing.T) {
	bench, err := loadBenchmark("../..")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, fedbench runs %v", names, ours)
	}
	for _, trace := range []bool{false, true} {
		declared := bench.EndToEnd
		if trace {
			declared = bench.PerLayer
		}
		measured := map[string]bool{}
		for _, w := range workloads {
			env := &runEnv{
				seed: 1, seconds: 500 * time.Millisecond, minPasses: 1,
				root: "../..", workDir: t.TempDir(), size: 0.1,
			}
			if trace {
				env.trace = newTracer()
				env.minPasses = 2
			}
			var out bytes.Buffer
			rep, res, err := runWorkload(&out, w, env, bench, filepath.Join(t.TempDir(), "spans.jsonl"))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			for name := range rep.values {
				measured[name] = true
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || !last.Correct || last.Attempted < 1 || last.Failed != 0 {
				t.Errorf("%s trace=%t: result %+v\n%s", w.name, trace, last, out.String())
			}
			if len(last.Metrics) != len(declared) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(last.Metrics), len(declared))
			}
			for _, d := range declared {
				if m, ok := last.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, d.Name, m, d.Unit)
				}
			}
		}
		for _, d := range declared {
			if !measured[d.Name] {
				t.Errorf("trace=%t: no workload measures %s", trace, d.Name)
			}
			delete(measured, d.Name)
		}
		// Traced compute runs also time their set-up, which only untraced
		// runs report.
		delete(measured, "setup_s")
		for name := range measured {
			t.Errorf("trace=%t: %s is measured but BENCHMARK.json does not declare it", trace, name)
		}
	}
}
