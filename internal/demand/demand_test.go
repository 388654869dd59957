package demand

import (
	"math"
	"testing"

	"fedshare/internal/economics"
)

func TestGenerateBasics(t *testing.T) {
	obs, err := Generate(TraceConfig{Count: 500, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 500 {
		t.Fatalf("got %d observations", len(obs))
	}
	for _, o := range obs {
		if o.Locations <= 0 || o.Resources <= 0 || o.Holding <= 0 || o.Holding > 1 {
			t.Fatalf("invalid observation %+v", o)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(TraceConfig{Count: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(TraceConfig{Count: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce the trace")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(TraceConfig{Count: -1}); err == nil {
		t.Error("negative count must fail")
	}
}

func TestEstimateRecoversMixture(t *testing.T) {
	// Generate from the ground truth and re-estimate: the recovered
	// mixture should be close to the generator's weights.
	obs, err := Generate(TraceConfig{Count: 3000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := Estimate(obs, []economics.ExperimentType{
		economics.P2PExperiment, economics.CDNService, economics.MeasurementExperiment,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Total() != 3000 {
		t.Fatalf("estimated total %d", wl.Total())
	}
	fractions := map[string]float64{}
	for _, s := range Summarize(wl) {
		fractions[s.Name] = s.Fraction
	}
	want := map[string]float64{"p2p": 0.6, "cdn": 0.1, "measurement": 0.3}
	for name, w := range want {
		if math.Abs(fractions[name]-w) > 0.05 {
			t.Errorf("%s fraction %g, want ~%g", name, fractions[name], w)
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate(nil, nil); err == nil {
		t.Error("no candidates must fail")
	}
	bad := economics.P2PExperiment
	bad.Resources = 0
	if _, err := Estimate(nil, []economics.ExperimentType{bad}); err == nil {
		t.Error("invalid candidate must fail")
	}
	if _, err := Estimate([]Observation{{Locations: 0, Resources: 1, Holding: 1}},
		[]economics.ExperimentType{economics.P2PExperiment}); err == nil {
		t.Error("invalid observation must fail")
	}
}

func TestSummarizeOrdering(t *testing.T) {
	wl, err := economics.NewWorkload(
		economics.DemandClass{Type: economics.CDNService, Count: 2},
		economics.DemandClass{Type: economics.P2PExperiment, Count: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(wl)
	if sum[0].Name != "p2p" || sum[0].Count != 8 {
		t.Errorf("largest first: %+v", sum)
	}
	if math.Abs(sum[0].Fraction-0.8) > 1e-12 {
		t.Errorf("fraction %g", sum[0].Fraction)
	}
}

func TestEstimatedWorkloadDrivesModel(t *testing.T) {
	// End-to-end: trace -> estimate -> it is a valid workload for the
	// allocation engine (non-empty classes with positive counts).
	obs, err := Generate(TraceConfig{Count: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := Estimate(obs, []economics.ExperimentType{
		economics.P2PExperiment, economics.MeasurementExperiment,
	})
	if err != nil {
		t.Fatal(err)
	}
	if wl.Total() != 100 {
		t.Errorf("total %d", wl.Total())
	}
	for _, c := range wl.Classes {
		if c.Count <= 0 {
			t.Errorf("class %s has count %d", c.Type.Name, c.Count)
		}
	}
}
