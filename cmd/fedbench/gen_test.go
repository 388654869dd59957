package main

import (
	"encoding/json"
	"testing"

	"fedshare/internal/allocation"
	"fedshare/internal/coalition"
	"fedshare/internal/scenario"
)

// generated renders every generated input of a seed as JSON.
func generated(t *testing.T, seed uint64, size float64) map[string]string {
	t.Helper()
	var lifecycles []lifecycle
	for i := 0; i < 64; i++ {
		lifecycles = append(lifecycles, planLifecycle(seed, i))
	}
	inputs := map[string]any{
		"federation": federationSpecs(seed, size),
		"walk":       walkSpec(seed, size),
		"scarce":     scarceSpec(seed, size),
		"lifecycles": lifecycles,
		"partitions": partitionPlan(seed),
	}
	out := map[string]string{}
	for name, v := range inputs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

func TestGeneratorsAreSeeded(t *testing.T) {
	a, again, other := generated(t, 7, 1), generated(t, 7, 1), generated(t, 8, 1)
	for name := range a {
		if a[name] != again[name] {
			t.Errorf("%s: the same seed generated different inputs", name)
		}
		if a[name] == other[name] {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
}

func TestGeneratedSpecsParseAndValidate(t *testing.T) {
	for _, size := range []float64{1, 0.1} {
		specs := append(federationSpecs(3, size), walkSpec(3, size), scarceSpec(3, size))
		if _, err := parsed(specs...); err != nil {
			t.Errorf("size %g: %v", size, err)
		}
	}
}

// TestScaledInstancesKeepTheirLayer checks that shrunken instances still
// stress the layer their workload exists for.
func TestScaledInstancesKeepTheirLayer(t *testing.T) {
	fallbacks := func(s *scenario.Spec) (steps, fb int64, engine string) {
		t.Helper()
		m, err := s.Model()
		if err != nil {
			t.Fatal(err)
		}
		s0, f0 := allocation.PrefixCounters()
		res, err := approxPolicy(s).Result(m)
		if err != nil {
			t.Fatal(err)
		}
		s1, f1 := allocation.PrefixCounters()
		return s1 - s0, f1 - f0, res.Method
	}
	if steps, fb, _ := fallbacks(scarceSpec(1, 0.2)); steps == 0 || float64(fb) < 0.9*float64(steps) {
		t.Errorf("scarce: %d of %d prefix steps fell back, want at least 90%%", fb, steps)
	}
	if steps, fb, _ := fallbacks(walkSpec(1, 0.05)); steps == 0 || fb != 0 {
		t.Errorf("walk: %d of %d prefix steps fell back, want none", fb, steps)
	}
	spec := federationSpecs(1, 0.1)[1]
	if _, _, engine := fallbacks(spec); engine != coalition.EngineApproxCollapsed {
		t.Errorf("federation: engine %s, want %s", engine, coalition.EngineApproxCollapsed)
	}
}
