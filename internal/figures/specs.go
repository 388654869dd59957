// Package figures regenerates every figure of the paper's evaluation
// (Sec. 4). Each figure is a declarative scenario.Spec registered with the
// scenario registry and executed by the generic scenario engine; importing
// this package registers them. Parameter choices the paper leaves implicit
// (demand volume K for Figs 6, 7 and 9) are fixed in the specs and
// documented in EXPERIMENTS.md.
package figures

import (
	"fmt"

	"fedshare/internal/scenario"
)

// The paper's evaluation as data: every figure of Sec. 4 is a declarative
// scenario.Spec. The specs pin exactly the parameters the legacy bespoke
// builders used (facility triple L = (100, 400, 800), per-figure capacity
// vectors and demand volumes, grid steps and rounding), so the generic
// executor reproduces the pre-refactor tables byte for byte — enforced by
// the golden tests in golden_test.go.

// Demand volumes the paper leaves implicit (documented in EXPERIMENTS.md).
const (
	// Fig6DemandK is the demand volume used for Figure 6 (the paper states
	// only "enough in number to fill the system's capacity"; saturation
	// occurs at m = 80 experiments).
	Fig6DemandK = 100
	// Fig7DemandK is the total demand for Figure 7, chosen so that total
	// demand roughly fills the grand coalition's 52 000 slot capacity
	// (40 experiments × up to 1300 locations).
	Fig7DemandK = 40
	// Fig9DemandK saturates the system for Figure 9 (demand exceeds
	// capacity at every swept L1).
	Fig9DemandK = 100
)

// paperFacilities is the L = (100, 400, 800) triple of Sec. 4.1 with the
// given per-location capacities.
func paperFacilities(caps [3]float64) []scenario.FacilitySpec {
	return []scenario.FacilitySpec{
		{Name: "F1", Locations: 100, Resources: caps[0]},
		{Name: "F2", Locations: 400, Resources: caps[1]},
		{Name: "F3", Locations: 800, Resources: caps[2]},
	}
}

// fig2Spec: the threshold-power utility for d ∈ {0.8, 1, 1.2} with l = 50
// over x ∈ [0, 300].
func fig2Spec() *scenario.Spec {
	return &scenario.Spec{
		ID:     "fig2",
		Title:  "Utility functions for l = 50",
		XLabel: "x",
		Notes:  "u(x) = x^d for x >= 50, 0 below the diversity threshold.",
		Kind:   scenario.KindUtility,
		Demand: []scenario.DemandSpec{
			{Name: "d=0.8", MinLocations: 50, Shape: 0.8},
			{Name: "d=1.0", MinLocations: 50, Shape: 1.0},
			{Name: "d=1.2", MinLocations: 50, Shape: 1.2},
		},
		Axis: scenario.AxisSpec{Variable: scenario.VarX, From: 0, To: 300, Step: 10},
	}
}

// fig4Spec: φ̂_i and π̂_i versus the diversity threshold l for
// L = (100, 400, 800), unit capacities, a single linear-utility experiment.
// strict selects the boundary convention (see EXPERIMENTS.md).
func fig4Spec(id string, strict bool) *scenario.Spec {
	return &scenario.Spec{
		ID:         id,
		Title:      "Profit shares with respect to l",
		XLabel:     "l",
		Notes:      "Staircase drops at l = 100, 400, 500, 800, 900, 1200; equal shares in (1200, 1300]; zero beyond 1300.",
		Facilities: paperFacilities([3]float64{1, 1, 1}),
		Demand: []scenario.DemandSpec{
			{Name: "single", Count: 1, Shape: 1, Strict: strict},
		},
		Policies: []string{"shapley", "proportional"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarThreshold, From: 0, To: 1400, Step: 50},
	}
}

// figMarketSpec (extension, supporting the Sec. 5 discussion): φ̂_i versus
// the shares a Bellagio-style combinatorial auction pays out, over the
// diversity threshold l on the fig4 federation. The auction divides value
// by consumption, so it diverges from φ̂ exactly where diversity binds.
func figMarketSpec() *scenario.Spec {
	return &scenario.Spec{
		ID:         "fig-market",
		Title:      "Shapley vs combinatorial-auction shares with respect to l (extension)",
		XLabel:     "l",
		Notes:      "Single experiment of threshold l bidding for its optimal full-spread package; auction revenue attributed by consumed slots (the diversity profile). Divergence from Shapley grows once l exceeds facility sizes.",
		Facilities: paperFacilities([3]float64{1, 1, 1}),
		Demand: []scenario.DemandSpec{
			{Name: "single", Count: 1, Shape: 1},
		},
		Policies: []string{"shapley", "auction"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarThreshold, From: 0, To: 1300, Step: 100},
	}
}

// fig5Spec: shares versus the utility shape d with the threshold fixed at
// l = 600.
func fig5Spec() *scenario.Spec {
	return &scenario.Spec{
		ID:         "fig5",
		Title:      "Profit shares with respect to d (l = 600)",
		XLabel:     "d",
		Notes:      "As d grows the game turns convex and φ̂ approaches π̂.",
		Facilities: paperFacilities([3]float64{1, 1, 1}),
		Demand: []scenario.DemandSpec{
			{Name: "single", Count: 1, MinLocations: 600, Shape: 1},
		},
		Policies: []string{"shapley", "proportional"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarShape, From: 0.1, To: 2.5, Step: 0.1, Round: 1},
	}
}

// fig6Spec: shares versus l with capacity-aware facilities R = (80, 20, 10)
// so that all L_i·R_i are equal, demand filling capacity.
func fig6Spec() *scenario.Spec {
	return &scenario.Spec{
		ID:         "fig6",
		Title:      "Profit shares with respect to l, equal L_i*R_i",
		XLabel:     "l",
		Notes:      "K = 100 identical experiments (saturation at m = 80). Equal totals, very different Shapley shares once l > 0.",
		Facilities: paperFacilities([3]float64{80, 20, 10}),
		Demand: []scenario.DemandSpec{
			{Name: "batch", Count: Fig6DemandK, Shape: 1},
		},
		Policies: []string{"shapley", "proportional"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarThreshold, From: 0, To: 1400, Step: 50},
	}
}

// fig7Spec: shares versus the mixture ratio σ between type-1 (l = 0) and
// type-2 (l = 700) experiments, R = (80, 50, 30).
func fig7Spec() *scenario.Spec {
	return &scenario.Spec{
		ID:         "fig7",
		Title:      "Profit shares with respect to the experiment mixture σ",
		XLabel:     "sigma",
		Notes:      "K = 40 experiments, fraction σ of type l=700. More diversity-hungry demand pushes φ̂ away from π̂.",
		Facilities: paperFacilities([3]float64{80, 50, 30}),
		Demand: []scenario.DemandSpec{
			{Name: "flexible", Count: Fig7DemandK, Shape: 1},
			{Name: "diversity-hungry", Count: 0, MinLocations: 700, Shape: 1},
		},
		Policies: []string{"shapley", "proportional"},
		Axis: scenario.AxisSpec{
			Variable: scenario.VarSigma, Target: "diversity-hungry",
			From: 0, To: 1, Step: 0.05, Round: 2,
		},
	}
}

// fig8Spec: shares versus demand volume K for l = 250 and R = (80, 60, 20),
// including the consumption-proportional ρ̂.
func fig8Spec() *scenario.Spec {
	return &scenario.Spec{
		ID:         "fig8",
		Title:      "Profit shares with respect to demand volume K (l = 250)",
		XLabel:     "K",
		Notes:      "π̂ is demand-independent; ρ̂ starts at the diversity profile L_i/ΣL and drifts toward capacity shares as locations saturate.",
		Facilities: paperFacilities([3]float64{80, 60, 20}),
		Demand: []scenario.DemandSpec{
			{Name: "batch", Count: 0, MinLocations: 250, Shape: 1},
		},
		Policies: []string{"shapley", "proportional", "consumption"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarCount, Target: "batch", From: 0, To: 100, Step: 5},
	}
}

// fig9Spec: facility 1's absolute profit versus its own location count L1
// for thresholds l ∈ {0, 400, 800}, under Shapley and proportional sharing.
func fig9Spec() *scenario.Spec {
	variants := make([]scenario.VariantSpec, 0, 3)
	for _, l := range []float64{0, 400, 800} {
		variants = append(variants, scenario.VariantSpec{
			Name: nameL(l),
			Set:  []scenario.SetSpec{{Variable: scenario.VarThreshold, Value: l}},
		})
	}
	return &scenario.Spec{
		ID:         "fig9",
		Title:      "Profit of facility 1 with respect to L1",
		XLabel:     "L1",
		Notes:      "K = 100 experiments (demand exceeds capacity). Shapley profit jumps at coalition-feasibility thresholds; proportional grows smoothly.",
		Kind:       scenario.KindProfit,
		Facilities: paperFacilities([3]float64{80, 60, 20}),
		Demand: []scenario.DemandSpec{
			{Name: "batch", Count: Fig9DemandK, Shape: 1},
		},
		Policies: []string{"shapley", "proportional"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarLocations, Target: "F1", From: 0, To: 1000, Step: 50},
		Track:    "F1",
		Variants: variants,
	}
}

// figApproxSpec (extension): the approximation tier at federation scale. A
// 100-facility federation declared from four facility templates sweeps the
// diversity threshold; shares come from the forced sampling estimator
// (symmetry-collapsed, seeded, CI-targeted) next to the proportional rule.
// Each template contributes one mean-share curve, so the figure reads like
// the paper's 3-facility share plots at 30× the federation size.
func figApproxSpec() *scenario.Spec {
	return &scenario.Spec{
		ID:     "fig-approx",
		Title:  "Profit shares of a 100-facility federation with respect to l (approximate Shapley, extension)",
		XLabel: "l",
		Notes:  "4 facility templates × {40,30,20,10} replicas; sampled Shapley with symmetry collapse, seed 42, adaptive to 1% CI. Curves are per-template mean shares.",
		Facilities: []scenario.FacilitySpec{
			{Name: "S", Locations: 20, Resources: 1, Count: 40},
			{Name: "M", Locations: 50, Resources: 1, Count: 30},
			{Name: "L", Locations: 100, Resources: 2, Count: 20},
			{Name: "XL", Locations: 200, Resources: 2, Count: 10},
		},
		Demand: []scenario.DemandSpec{
			{Name: "batch", Count: 100, Shape: 1},
		},
		Policies: []string{"shapley-approx", "proportional"},
		Axis:     scenario.AxisSpec{Variable: scenario.VarThreshold, Values: []float64{0, 1000, 2000, 3000}},
		Method:   scenario.MethodApprox,
		CITarget: 0.01,
		Seed:     42,
	}
}

// nameL renders a threshold variant label ("l=400").
func nameL(l float64) string {
	return "l=" + trimFloat(l)
}

// trimFloat formats an integral float without a decimal point.
func trimFloat(x float64) string {
	return fmt.Sprintf("%.0f", x)
}

// init registers the paper figure set and its extensions with the scenario
// registry, in paper order. fedsim's -fig dispatch, -list output and usage
// text all derive from this registration.
func init() {
	scenario.MustRegister(scenario.Entry{ID: "fig2", Spec: fig2Spec()})
	scenario.MustRegister(scenario.Entry{ID: "fig4", Spec: fig4Spec("fig4", false)})
	scenario.MustRegister(scenario.Entry{
		ID:      "fig4-strict",
		Title:   "Profit shares with respect to l (strict threshold convention)",
		Spec:    fig4Spec("fig4-strict", true),
		Variant: true,
	})
	scenario.MustRegister(scenario.Entry{ID: "fig5", Spec: fig5Spec()})
	scenario.MustRegister(scenario.Entry{ID: "fig6", Spec: fig6Spec()})
	scenario.MustRegister(scenario.Entry{ID: "fig7", Spec: fig7Spec()})
	scenario.MustRegister(scenario.Entry{ID: "fig8", Spec: fig8Spec()})
	scenario.MustRegister(scenario.Entry{ID: "fig9", Spec: fig9Spec()})
	scenario.MustRegister(scenario.Entry{
		ID:        "fig-market",
		Spec:      figMarketSpec(),
		Extension: true,
	})
	scenario.MustRegister(scenario.Entry{
		ID:        "fig-approx",
		Spec:      figApproxSpec(),
		Extension: true,
	})
}
